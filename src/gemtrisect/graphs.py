"""Edge-colored multigraphs encoding triangulated manifolds.

A graph of dimension n is (n+1)-regular, loopless and properly
edge-colored with colors 0..n.  Vertices are 0..2p-1.  Parallel edges
with distinct colors are allowed; a proper coloring makes a second
parallel edge with the same color impossible.

Edges are kept in a canonical order (color, low endpoint, high
endpoint) and are addressed everywhere by their index in that order.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from collections import deque


class GemError(ValueError):
    """Base class for structural violations of the gem contract."""


class LoopEdgeError(GemError):
    pass


class NotProperError(GemError):
    pass


class NotRegularError(GemError):
    pass


class DisconnectedError(GemError):
    pass


class DimensionMismatchError(GemError):
    pass


class ColoredGraph:
    """Immutable properly edge-colored (n+1)-regular multigraph.

    Attributes:
        n: dimension (colors are 0..n).
        nv: number of vertices (always even).
        edges: tuple of (u, v, c) triples with u < v, sorted by (c, u, v).
    """

    __slots__ = ("n", "nv", "edges", "_inc", "_memo")

    def __init__(self, n, nv, edges, _inc):
        self.n = n
        self.nv = nv
        self.edges = edges
        self._inc = _inc  # per vertex: tuple of edge ids indexed by color
        self._memo = {}     # invariants, residues and sub-gems, by key

    # -- construction ------------------------------------------------

    @staticmethod
    def build(n, edge_list):
        """Validate an (u, v, c) edge list and return a ColoredGraph.

        Raises a GemError subclass naming the first violated rule:
        vertex ids, colors, loops, edge count, proper coloring,
        connectivity.  A proper coloring gives a vertex at most n + 1
        edge ends, so one with 2E >= (n + 1) nv is regular and each
        color pairs up the vertices (the order is even).  The count
        comes first, so the incidence table never exceeds 2E slots.
        """
        if n < 1:
            raise GemError("dimension must be at least 1")
        colors = range(n + 1)
        verts = set()
        for u, v, c in edge_list:
            verts.add(u)
            verts.add(v)
        if not verts:
            raise GemError("empty edge list")
        # distinct ids with minimum 0 and maximum len - 1 are exactly
        # 0..nv-1; checked before any table of size max(id) exists
        nv = len(verts)
        top = max(verts)
        if min(verts) != 0 or top != nv - 1:
            raise GemError("vertex ids must be 0..%s with no gaps"
                           % _brief(top))
        for u, v, c in edge_list:
            if c not in colors:
                raise GemError("color %s outside 0..%s"
                               % (_brief(c), _brief(n)))
            if u == v:
                raise LoopEdgeError("loop at vertex %d (color %d)" % (u, c))
        if 2 * len(edge_list) < (n + 1) * nv:
            raise NotRegularError(
                "%d edges on %d vertices cannot give each vertex all %s "
                "colors" % (len(edge_list), nv, _brief(n + 1)))
        g = ColoredGraph._indexed(n, nv, edge_list)
        if len(residues(g, colors)) != 1:
            raise DisconnectedError("graph is not connected")
        return g

    @staticmethod
    def _indexed(n, nv, edge_list):
        """The graph of an edge list on vertices 0..nv-1, in canonical order.

        The step build runs after its checks: sort the edges by (color,
        low end, high end) and fill the incidence table.  It refuses a
        dimension below 1 and two edges of one color at a vertex, which
        filling the table detects for free; loops, the edge count and
        connectivity are the caller's to check or to know.
        """
        if n < 1:
            raise GemError("dimension must be at least 1")
        canon = sorted((c, u, v) if u < v else (c, v, u)
                       for u, v, c in edge_list)
        inc = [[None] * (n + 1) for _ in range(nv)]
        for eid, (c, u, v) in enumerate(canon):
            for w in (u, v):
                if inc[w][c] is not None:
                    raise NotProperError(
                        "vertex %d has two edges of color %d" % (w, c))
                inc[w][c] = eid
        return ColoredGraph(n, nv, tuple((u, v, c) for c, u, v in canon),
                            tuple(map(tuple, inc)))

    # -- basic queries -----------------------------------------------

    @property
    def colors(self):
        return range(self.n + 1)

    def edge_ids(self, color=None):
        if color is None:
            return range(len(self.edges))
        return [i for i, (u, v, c) in enumerate(self.edges) if c == color]

    def incident(self, v, c):
        """Edge id of the unique c-colored edge at vertex v."""
        return self._inc[v][c]

    def neighbor(self, v, c):
        """(vertex, edge id) across the c-colored edge at v."""
        eid = self._inc[v][c]
        u, w, _ = self.edges[eid]
        return (w if u == v else u, eid)

    def other_end(self, eid, v):
        u, w, _ = self.edges[eid]
        return w if u == v else u

    def __eq__(self, other):
        return (isinstance(other, ColoredGraph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return "ColoredGraph(n=%d, order=%d, edges=%d)" % (
            self.n, self.nv, len(self.edges))


def _brief(x):
    """repr(x) for a message; an integer past 20 digits by its bit count.

    An input can carry an integer of thousands of digits, which would
    make a message that long, or past 4300 digits fail to print at all.
    """
    if isinstance(x, int) and abs(x) >= 10 ** 20:
        return "<integer of %d bits>" % x.bit_length()
    return repr(x)


def build_graph(n, edge_list):
    return ColoredGraph.build(n, edge_list)


# -- residues ---------------------------------------------------------

class Residue:
    """Connected component of the subgraph induced by a color subset."""

    __slots__ = ("colors", "vertices", "_inc")

    def __init__(self, colors, vertices, inc):
        self.colors = colors            # frozenset
        self.vertices = vertices        # sorted tuple
        self._inc = inc                 # the graph's incidence table

    @property
    def edge_ids(self):
        """Sorted ids of the residue's edges, read off the incidence table.

        Computed on each call: labelling residues never needs them, and
        only a sub-gem's construction does.  The residue keeps the
        graph's incidence table, not the graph, so a cached residue
        makes no reference cycle through the graph's memo.
        """
        inc = self._inc
        return tuple(sorted({inc[v][c] for v in self.vertices
                             for c in self.colors}))

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return "Residue(colors=%s, order=%d)" % (
            sorted(self.colors), len(self.vertices))


def residues(g, colorset):
    """Components of the colorset-induced subgraph, by minimum vertex.

    An empty colorset yields one residue per vertex.
    """
    colorset = frozenset(colorset)
    cached = g._memo.get(colorset) or _label_residues(g, colorset)
    return cached[0]


def residue_labels(g, colorset):
    """label[v] is the index in residues(g, colorset) of v's residue."""
    colorset = frozenset(colorset)
    cached = g._memo.get(colorset) or _label_residues(g, colorset)
    return cached[1]


def _label_residues(g, colorset):
    """Residues and labels of one color set from one pass, cached together.

    Starting each residue at the first unlabelled vertex numbers the
    residues by minimum vertex.
    """
    edges = g.edges
    inc = g._inc
    label = [-1] * g.nv
    out = []
    for start in range(g.nv):
        if label[start] >= 0:
            continue
        idx = len(out)
        label[start] = idx
        comp = [start]
        for v in comp:              # comp grows while it is walked
            row = inc[v]
            for c in colorset:
                a, b, _ = edges[row[c]]
                w = b if a == v else a
                if label[w] < 0:
                    label[w] = idx
                    comp.append(w)
        comp.sort()
        out.append(Residue(colorset, tuple(comp), inc))
    cached = g._memo[colorset] = (tuple(out), tuple(label))
    return cached


def residue_cycle_counts(g, colorset):
    """Per colorset-residue, how many cycles of each pair lie inside it.

    rows[i][pair] counts the {c,d}-cycles in residue i of
    residues(g, colorset), for every pair = frozenset({c, d}) of colors
    in colorset.  A bicolored cycle never straddles residues, so each is
    filed under the residue of its first vertex.  Memoised on g, like
    the residues; callers must not mutate the rows.
    """
    colorset = frozenset(colorset)
    key = ("cycles", colorset)
    rows = g._memo.get(key)
    if rows is None:
        label = residue_labels(g, colorset)
        pairs = [frozenset(p)
                 for p in itertools.combinations(sorted(colorset), 2)]
        rows = [dict.fromkeys(pairs, 0) for _ in residues(g, colorset)]
        for pair in pairs:
            for r in residues(g, pair):
                rows[label[r.vertices[0]]][pair] += 1
        g._memo[key] = rows
    return rows


class ResidueCensus(dict):
    """Residue counts of one graph keyed by frozenset of colors.

    A count is computed on first lookup, so callers that stop early
    never build the residues they did not need.
    """

    __slots__ = ("_g",)

    def __init__(self, g):
        super().__init__()
        self._g = g

    def __missing__(self, colors):
        count = self[colors] = len(residues(self._g, colors))
        return count

    def g_of(self, *colors):
        return self[frozenset(colors)]


def residue_census(g):
    """A census with every pair and triple of colors counted."""
    census = ResidueCensus(g)
    for r in (2, 3):
        for sub in itertools.combinations(g.colors, r):
            census.g_of(*sub)
    return census


def spanning_forest(size, ends):
    """Positions of the pairs a greedy spanning forest keeps.

    Nodes are 0..size-1 and ends yields node pairs, taken in order.  A
    pair is kept when it joins two trees, so a loop (x, x) never is,
    and of several pairs joining the same trees only the first.
    size - len(result) is the number of components.
    """
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept = []
    for i, (a, b) in enumerate(ends):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            kept.append(i)
    return kept


# -- bipartiteness -----------------------------------------------------

def is_bipartite(g):
    """(True, class list) or (False, odd closed walk as vertex list).

    The class list assigns 0/1 per vertex with class(0) == 0.
    """
    result = g._memo.get("bipartite")
    if result is not None:
        return result
    cls = [None] * g.nv
    parent = [None] * g.nv          # (prev vertex) for witness recovery
    cls[0] = 0
    queue = deque([0])
    while queue and result is None:
        v = queue.popleft()
        for c in g.colors:
            w, _ = g.neighbor(v, c)
            if cls[w] is None:
                cls[w] = cls[v] ^ 1
                parent[w] = v
                queue.append(w)
            elif cls[w] == cls[v]:
                result = (False, _odd_walk(parent, v, w))
                break
    if result is None:
        result = (True, tuple(cls))
    g._memo["bipartite"] = result
    return result


def _odd_walk(parent, v, w):
    """Closed odd walk using BFS tree paths and the edge v-w."""
    anc = [v]
    while parent[anc[-1]] is not None:
        anc.append(parent[anc[-1]])
    pos = {u: i for i, u in enumerate(anc)}
    path_w = [w]
    while path_w[-1] not in pos:
        path_w.append(parent[path_w[-1]])
    lca = path_w[-1]
    # lca -> ... -> v, cross to w, climb back down to just above lca
    return tuple(reversed(anc[:pos[lca] + 1])) + tuple(path_w[:-1])


# -- bicolored cycles ---------------------------------------------------

class Cycle:
    """A {c,d}-colored cycle as a closed alternating walk.

    steps[i] = (edge id, +1 or -1); +1 traverses the stored edge from
    its low to its high endpoint.  The walk starts at the minimum
    vertex of the cycle along its min(c, d)-colored edge.
    """

    __slots__ = ("colors", "vertices", "steps")

    def __init__(self, colors, vertices, steps):
        self.colors = colors
        self.vertices = vertices    # visit order, len == len(steps)
        self.steps = steps

    @property
    def edge_ids(self):
        return tuple(e for e, _ in self.steps)

    def __len__(self):
        return len(self.steps)

    def __repr__(self):
        return "Cycle(colors=%s, length=%d, start=%d)" % (
            sorted(self.colors), len(self.steps), self.vertices[0])


def bicolored_cycles(g, c, d):
    """All {c,d}-cycles, ordered by their minimum vertex."""
    if c == d:
        raise GemError("need two distinct colors")
    seen = set()
    out = []
    for start in range(g.nv):
        if start in seen:
            continue
        verts = []
        steps = []
        v = start
        col = min(c, d)
        while True:
            verts.append(v)
            seen.add(v)
            w, eid = g.neighbor(v, col)
            u, _, _ = g.edges[eid]
            steps.append((eid, 1 if u == v else -1))
            v = w
            col = c if col == d else d
            if v == start and col == min(c, d):
                break
        out.append(Cycle(frozenset((c, d)), tuple(verts), tuple(steps)))
    return out


# -- manifold-preserving constructions ---------------------------------

def blob_insert(g, edge_id):
    """Insert a pair of vertices joined by all colors but one.

    The chosen edge u-v of color c is cut into u-x and y-v and the new
    vertices x, y are joined by edges of every color except c.  The
    encoded manifold is unchanged; the order grows by 2.
    """
    u, v, c = g.edges[edge_id]
    x, y = g.nv, g.nv + 1
    new_edges = [e for i, e in enumerate(g.edges) if i != edge_id]
    new_edges.append((u, x, c))
    new_edges.append((y, v, c))
    for col in g.colors:
        if col != c:
            new_edges.append((x, y, col))
    return ColoredGraph.build(g.n, new_edges)


def connected_sum(g1, g2, v1, v2):
    """Weld two graphs along deleted vertices v1 and v2.

    For each color the dangling ends left by the deletions are joined.
    When both graphs are bipartite the deleted vertices must lie in
    opposite canonical classes, which keeps the result bipartite with
    the orientation conventions used elsewhere.
    """
    if g1.n != g2.n:
        raise DimensionMismatchError(
            "dimensions differ: %d vs %d" % (g1.n, g2.n))
    b1, c1 = is_bipartite(g1)
    b2, c2 = is_bipartite(g2)
    if b1 and b2 and c1[v1] == c2[v2]:
        raise GemError(
            "vertices %d and %d lie in the same bipartition class" % (v1, v2))

    # g1 keeps its vertex order minus v1; g2 is appended minus v2.
    map1 = {}
    nxt = 0
    for w in range(g1.nv):
        if w != v1:
            map1[w] = nxt
            nxt += 1
    map2 = {}
    for w in range(g2.nv):
        if w != v2:
            map2[w] = nxt
            nxt += 1

    new_edges = []
    for u, w, c in g1.edges:
        if v1 not in (u, w):
            new_edges.append((map1[u], map1[w], c))
    for u, w, c in g2.edges:
        if v2 not in (u, w):
            new_edges.append((map2[u], map2[w], c))
    for c in g1.colors:
        a1 = g1.other_end(g1.incident(v1, c), v1)
        a2 = g2.other_end(g2.incident(v2, c), v2)
        new_edges.append((map1[a1], map2[a2], c))
    return ColoredGraph.build(g1.n, new_edges)


def residue_subgem(g, res):
    """Extract a residue as a standalone lower-dimensional graph.

    Colors are relabeled order-preservingly to 0..len(colors)-1 and
    vertices to 0..order-1.  Returns (graph, vertex_map, color_map)
    where the maps send parent ids to the new ids.  Built once per
    residue and memoised on g, so invariants memoised on the sub-gem
    (its pi1 and H1) are shared by every caller; callers must not
    mutate it.

    The sub-gem skips build's checks and goes straight to the indexing
    step, which still refuses fewer than two colors.  That is sound
    because g passed them: every vertex of the residue meets exactly
    one edge of each residue color, and that edge stays inside the
    residue, so the sub-gem is regular, proper and loopless; and a
    residue is connected by definition.
    """
    key = ("subgem", res.colors, res.vertices[0])
    out = g._memo.get(key)
    if out is None:
        cols = sorted(res.colors)
        cmap = {c: i for i, c in enumerate(cols)}
        vmap = {v: i for i, v in enumerate(res.vertices)}
        edges = [(vmap[g.edges[e][0]], vmap[g.edges[e][1]],
                  cmap[g.edges[e][2]]) for e in res.edge_ids]
        out = g._memo[key] = (
            ColoredGraph._indexed(len(cols) - 1, len(vmap), edges),
            vmap, cmap)
    return out


def standard_sphere_gem(n):
    """The order-2 gem of the n-sphere: two vertices, all colors."""
    return ColoredGraph.build(n, [(0, 1, c) for c in range(n + 1)])


class DipoleReducer:
    """The dipole-cancelling chain on one mutable copy of g.

    cancel_next() cancels the same dipoles in the same order as
    repeatedly calling find_dipole and cancel_dipole, the plain chain
    kept in tests/reference.py as the reference, but names them by
    the vertex ids of g: cancel_dipole renumbers the survivors in their
    old order, so the first dipole in sorted (u, v) order is the same
    pair under either numbering.  Each cancellation costs O(1) besides
    heap and union-find operations, because

    - candidate pairs sit in a min-heap and are re-checked when popped.
      A rejected pair can become a dipole only when a weld adds a color
      between its two vertices, and that weld pushes the pair again;
    - cancelling a dipole of colors S lowers the {c,d}-cycle count by
      one when {c,d} lies inside S or misses S, and keeps it otherwise;
    - for a color set C the C-residues of the dipole's two vertices
      merge when C misses S, and no C-residue changes otherwise (the
      two vertices already share one), so one union-find per color set
      tells whether a pair lies in different residues of the
      complementary colors;
    - a pair joined by all colors but c is always a dipole, as neither
      vertex is the other's c-neighbor, so one-color sets need none.

    The union-finds join residues, not vertices: each starts, at
    construction, from labels(colors) = residue_labels(g, colors), for
    every set of two to n colors.  pair_counts maps each pair of colors
    to its cycle count.  Both default to g's own (residue_labels and a
    ResidueCensus); a sub-gem's verdict reads them off its parent, which
    has already labelled every residue of the sub-gem (see
    validation._classify_colors).

    Welds keep the graph proper and regular; graph() rebuilds the
    current graph through build_graph, which validates it.
    """

    def __init__(self, g, pair_counts=None, labels=None):
        if pair_counts is None:
            pair_counts = ResidueCensus(g)
        if labels is None:
            labels = functools.partial(residue_labels, g)
        self.n = g.n
        self.nv = g.nv
        nbr = [[0] * (g.n + 1) for _ in range(g.nv)]
        for u, v, c in g.edges:
            nbr[u][c] = v
            nbr[v][c] = u
        self._nbr = nbr
        self._alive = [True] * g.nv
        self.pair_counts = {
            frozenset(p): pair_counts[frozenset(p)]
            for p in itertools.combinations(g.colors, 2)}
        self._colors = frozenset(g.colors)
        self._heap = sorted({(u, v) for u, v, _ in g.edges})
        self._uf = {}       # color set -> (vertex labels, parent by label)
        for size in range(2, g.n + 1):
            for cs in itertools.combinations(g.colors, size):
                label = labels(cs)
                self._uf[frozenset(cs)] = (label, list(range(max(label) + 1)))

    def cancel_next(self):
        """Cancel the first dipole; return (u, v, colors) or None."""
        heap = self._heap
        alive = self._alive
        while heap:
            u, v = heapq.heappop(heap)
            if not (alive[u] and alive[v]):
                continue
            # edges between live vertices outlast every weld, so a
            # queued pair is still adjacent
            nu = self._nbr[u]
            S = frozenset(c for c in self._colors if nu[c] == v)
            comp = self._colors - S
            if not comp or (len(comp) > 1 and
                            self._root(comp, u) == self._root(comp, v)):
                continue
            self._cancel(u, v, S)
            return (u, v, S)
        return None

    def _root(self, colors, x):
        label, parent = self._uf[colors]
        r = label[x]
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    def _cancel(self, u, v, colors):
        nbr = self._nbr
        self._alive[u] = self._alive[v] = False
        self.nv -= 2
        for pair in self.pair_counts:
            if pair <= colors or not pair & colors:
                self.pair_counts[pair] -= 1
        # when cset meets colors, u and v already share a residue
        for cset, (_, parent) in self._uf.items():
            if not cset & colors:
                parent[self._root(cset, u)] = self._root(cset, v)
        for c in self._colors - colors:
            a, b = nbr[u][c], nbr[v][c]
            nbr[a][c] = b
            nbr[b][c] = a
            heapq.heappush(self._heap, (a, b) if a < b else (b, a))

    def graph(self):
        """The current graph, numbered as cancel_dipole would number it."""
        keep = [w for w, ok in enumerate(self._alive) if ok]
        new_id = {w: i for i, w in enumerate(keep)}
        edges = [(new_id[a], new_id[b], c)
                 for a in keep for c, b in enumerate(self._nbr[a]) if a < b]
        return build_graph(self.n, edges)
