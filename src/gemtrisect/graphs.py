"""Edge-colored multigraphs encoding triangulated manifolds.

A graph of dimension n is (n+1)-regular, loopless and properly
edge-colored with colors 0..n.  Vertices are 0..2p-1.  Parallel edges
with distinct colors are allowed; a proper coloring makes a second
parallel edge with the same color impossible.

Edges are kept in a canonical order (color, low endpoint, high
endpoint) and are addressed everywhere by their index in that order.

The 3-manifold verdicts' dipole chain (DipoleReducer) runs on flat
integer tables in the gem's own vertex ids: neighbor rows in a list by
vertex, None once a vertex is cancelled, cycle counts in a list by pair
of colors, and per-mask plans of what a cancellation changes.  It
cancels first the dipoles that raise chi for the residue's order of
greatest chi, in four colors the 2-dipoles on a diagonal of that
order, so a residue whose best order has regular genus g can be proven
a sphere in g cancellations, the fewest any chain needs.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
from collections import deque, namedtuple


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

    Two tables indexed [v][c], filled together: _inc holds the id of
    the c-colored edge at v and _nbr the vertex across it, so a walk
    reads neighbors without decoding edges.
    """

    __slots__ = ("n", "nv", "edges", "_inc", "_nbr", "_memo")

    def __init__(self, n, nv, edges, _inc, _nbr):
        self.n = n
        self.nv = nv
        self.edges = edges
        self._inc = _inc  # per vertex: tuple of edge ids indexed by color
        self._nbr = _nbr  # per vertex: tuple of neighbors indexed by color
        self._memo = {}     # invariants and residue censuses, by key

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
        if residue_count(g, colors) != 1:
            raise DisconnectedError("graph is not connected")
        return g

    @staticmethod
    def _indexed(n, nv, edge_list):
        """The graph of an edge list on vertices 0..nv-1, in canonical order.

        The step build runs after its checks: sort the edges by (color,
        low end, high end) and fill the incidence and neighbor tables.
        It refuses a dimension below 1 and two edges of one color at a
        vertex, which filling the table detects for free; loops, the
        edge count and connectivity are the caller's to check or to
        know.
        """
        if n < 1:
            raise GemError("dimension must be at least 1")
        canon = sorted((c, u, v) if u < v else (c, v, u)
                       for u, v, c in edge_list)
        inc = [[None] * (n + 1) for _ in range(nv)]
        nbr = [[None] * (n + 1) for _ in range(nv)]
        for eid, (c, u, v) in enumerate(canon):
            if inc[u][c] is not None or inc[v][c] is not None:
                w = u if inc[u][c] is not None else v
                raise NotProperError(
                    "vertex %d has two edges of color %d" % (w, c))
            inc[u][c] = inc[v][c] = eid
            nbr[u][c] = v
            nbr[v][c] = u
        return ColoredGraph(n, nv, tuple((u, v, c) for c, u, v in canon),
                            tuple(map(tuple, inc)), tuple(map(tuple, nbr)))

    # -- basic queries -----------------------------------------------

    @property
    def colors(self):
        return range(self.n + 1)

    def edge_ids(self, color=None):
        """Ids of all edges, or of one color's: a contiguous range.

        Edges are sorted by color and each color pairs up the vertices,
        so color c owns ids c * nv / 2 up to (c + 1) * nv / 2.
        """
        if color is None:
            return range(len(self.edges))
        half = self.nv // 2
        return range(color * half, (color + 1) * half)

    def incident(self, v, c):
        """Edge id of the unique c-colored edge at vertex v."""
        return self._inc[v][c]

    def neighbor(self, v, c):
        """(vertex, edge id) across the c-colored edge at v."""
        return (self._nbr[v][c], self._inc[v][c])

    def __eq__(self, other):
        return (isinstance(other, ColoredGraph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return "ColoredGraph(n=%d, order=%d, edges=%d)" % (
            self.n, self.nv, len(self.edges))


def _brief(x):
    """repr(x) for a message, kept to one line.

    An input can carry an integer of thousands of digits, which would
    make a message that long, or past 4300 digits fail to print at all;
    one past 20 digits is named by its bit count.  A string past 60
    characters is named by its head and its length.
    """
    if isinstance(x, int) and abs(x) >= 10 ** 20:
        return "<integer of %d bits>" % x.bit_length()
    if isinstance(x, str) and len(x) > 60:
        return "%r... (%d characters)" % (x[:40], len(x))
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

    An empty colorset yields one residue per vertex.  Built from the
    census (_census) on the first call and memoised; callers that only
    count the residues, or read a vertex's residue, take residue_count
    or residue_labels, which build no Residue.
    """
    colorset = frozenset(colorset)
    key = ("residues", colorset)
    out = g._memo.get(key)
    if out is None:
        label, firsts = _census(g, colorset)
        if len(firsts) == 1:
            comps = [range(g.nv)]
        else:
            comps = [[] for _ in firsts]
            for v, i in enumerate(label):
                comps[i].append(v)
        inc = g._inc
        out = g._memo[key] = tuple(Residue(colorset, tuple(comp), inc)
                                   for comp in comps)
    return out


def residue_count(g, colorset):
    """How many residues colorset has: len(residues(g, colorset))."""
    return len(_census(g, frozenset(colorset))[1])


def residue_labels(g, colorset):
    """label[v] is the index in residues(g, colorset) of v's residue."""
    return _census(g, frozenset(colorset))[0]


def _census(g, colorset):
    """(labels, first vertices) of one color set's residues, memoised.

    labels[v] numbers v's residue by minimum vertex and firsts[i] is
    residue i's minimum vertex.  A pair is labelled by walking its
    alternating cycles.  A set of three or more colors whose subset
    without its largest color is memoised is joined from that subset
    (_join_residues); any other set is walked in one pass.
    """
    cached = g._memo.get(colorset)
    if cached is None:
        if not colorset <= frozenset(g.colors):
            raise GemError("colors %s outside 0..%d"
                           % (sorted(colorset - frozenset(g.colors)), g.n))
        if len(colorset) == 2:
            cached = _walk_cycles(g, *colorset)
        else:
            base = None
            if len(colorset) >= 3:
                top = max(colorset)
                base = g._memo.get(colorset - {top})
            if base is None:
                cached = _walk_residues(g, colorset)
            else:
                cached = _join_residues(g, base, top)
        g._memo[colorset] = cached
    return cached


def _walk_residues(g, colorset):
    """The census of colorset, walked from each vertex no earlier walk
    reached, so the residues are numbered by minimum vertex."""
    nbr = g._nbr
    label = [-1] * g.nv
    firsts = []
    for start, seen in enumerate(label):    # reads labels set by walks
        if seen >= 0:
            continue
        idx = len(firsts)
        firsts.append(start)
        label[start] = idx
        comp = [start]
        for v in comp:              # comp grows while it is walked
            row = nbr[v]
            for c in colorset:
                w = row[c]
                if label[w] < 0:
                    label[w] = idx
                    comp.append(w)
    return tuple(label), tuple(firsts)


def _walk_cycles(g, c, d):
    """The census of {c, d}: each cycle is walked from its least vertex,
    one c-edge and one d-edge per step, and its vertices labelled."""
    nbr = g._nbr
    across_c = list(map(operator.itemgetter(c), nbr))
    across_d = list(map(operator.itemgetter(d), nbr))
    label = [-1] * g.nv
    firsts = []
    for start, seen in enumerate(label):    # reads labels set by walks
        if seen >= 0:
            continue
        idx = len(firsts)
        firsts.append(start)
        v = start
        while True:
            w = across_c[v]
            label[v] = label[w] = idx
            v = across_d[w]
            if v == start:
                break
    return tuple(label), tuple(firsts)


def _join_residues(g, base, c):
    """The census of a color set from base, that of the set without c.

    Each residue of the smaller set lies in one of the set, and the
    c-colored edges, one slice of g.edges, join them.  The union-find
    over base labels keeps each group's least label as its root, so the
    groups, numbered in order of their roots, stay numbered by minimum
    vertex, and a group's first vertex is its root's.
    """
    base_label, base_firsts = base
    parent = list(range(len(base_firsts)))
    ids = g.edge_ids(c)
    for a, b, _ in g.edges[ids.start:ids.stop]:
        ra, rb = base_label[a], base_label[b]
        while parent[ra] != ra:
            parent[ra] = ra = parent[parent[ra]]
        while parent[rb] != rb:
            parent[rb] = rb = parent[parent[rb]]
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb
    # parent[x] <= x, so each label's group is numbered before it is read
    new_of = []
    firsts = []
    for x, p in enumerate(parent):
        if p == x:
            new_of.append(len(firsts))
            firsts.append(base_firsts[x])
        else:
            new_of.append(new_of[p])
    return tuple(map(new_of.__getitem__, base_label)), tuple(firsts)


def residue_cycle_counts(g, colorset):
    """Per colorset-residue, how many cycles of each pair lie inside it.

    rows[i][pair] counts the {c,d}-cycles in residue i of
    residues(g, colorset), for every pair = frozenset({c, d}) of colors
    in colorset.  A bicolored cycle never straddles residues, so each is
    filed under the residue of its first vertex.  Memoised on g, like
    the census; callers must not mutate the rows.
    """
    colorset = frozenset(colorset)
    key = ("cycles", colorset)
    rows = g._memo.get(key)
    if rows is None:
        pairs = [frozenset(p)
                 for p in itertools.combinations(sorted(colorset), 2)]
        # the pairs first, so a 3-set is joined from one of them and a
        # 4-set from a memoised 3-set (see _census)
        cycles = [_census(g, pair)[1] for pair in pairs]
        label, firsts = _census(g, colorset)
        rows = [dict.fromkeys(pairs, 0) for _ in firsts]
        for pair, cycle_firsts in zip(pairs, cycles):
            if len(rows) == 1:
                rows[0][pair] = len(cycle_firsts)
            else:
                for v in cycle_firsts:
                    rows[label[v]][pair] += 1
        g._memo[key] = rows
    return rows


def _chi_formula(pair_count, cyc_seq, order):
    """Euler characteristic of the regular embedding via residue counts.

    pair_count maps frozenset({c, d}) to the number of {c,d}-cycles,
    cyc_seq is a tuple of colors and order the number of vertices: chi
    is the sum of the counts of cyc_seq's consecutive pairs, plus
    (2 - len(cyc_seq)) * order / 2.  The pairs come from _pair_keys, so
    a call is len(cyc_seq) lookups.  embedding.rho, subgraph_rho,
    validation._genus_zero and DipoleReducer's starting chi call it.
    """
    total = 0
    for key in _pair_keys(cyc_seq):
        total += pair_count[key]
    return total + (2 - len(cyc_seq)) * (order // 2)


@functools.lru_cache(maxsize=256)
def _pair_keys(cyc_seq):
    """frozenset({c, d}) for each consecutive pair around cyc_seq.

    A pipeline run asks for a few dozen sequences: the 12 cyclic orders
    of five colors (rho), the 4-color orders they induce (subgraph_rho),
    and the three orders of each 4-residue's colors that
    validation._genus_zero and the dipole chain try.
    """
    n = len(cyc_seq)
    return tuple(frozenset((cyc_seq[i], cyc_seq[(i + 1) % n]))
                 for i in range(n))


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
    nbr = g._nbr
    cls = [None] * g.nv
    parent = [None] * g.nv          # (prev vertex) for witness recovery
    cls[0] = 0
    queue = deque([0])
    while queue and result is None:
        v = queue.popleft()
        for w in nbr[v]:
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

    walk[i] is the half-edge step i leaves by: 2 * edge id, plus 1 when
    the step runs the stored edge from its high endpoint to its low.
    The walk starts at start, the minimum vertex of the cycle, along its
    min(c, d)-colored edge, so its odd steps are its max(c, d) edges.
    The other vertices are not stored: step i leaves the vertex step
    i - 1 arrives at, so the walk names them all.
    """

    __slots__ = ("colors", "start", "walk")

    def __init__(self, colors, start, walk):
        self.colors = colors
        self.start = start
        self.walk = walk

    def __len__(self):
        return len(self.walk)

    def __repr__(self):
        return "Cycle(colors=%s, length=%d, start=%d)" % (
            sorted(self.colors), len(self.walk), self.start)


def bicolored_cycles(g, c, d):
    """All {c,d}-cycles, ordered by their minimum vertex.

    Each cycle is walked from its first vertex in the census of {c, d},
    which refuses a color outside 0..n.
    """
    if c == d:
        raise GemError("need two distinct colors")
    pair = frozenset((c, d))
    lo, hi = sorted(pair)
    nbr, inc = g._nbr, g._inc
    out = []
    for start in _census(g, pair)[1]:
        walk = []
        v = start
        while True:         # a lo step, then a hi step
            w = nbr[v][lo]
            x = nbr[w][hi]
            walk.append(2 * inc[v][lo] + (v > w))
            walk.append(2 * inc[w][hi] + (w > x))
            v = x
            if v == start:
                break
        out.append(Cycle(pair, start, tuple(walk)))
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
        new_edges.append((map1[g1._nbr[v1][c]], map2[g2._nbr[v2][c]], c))
    return ColoredGraph.build(g1.n, new_edges)


def residue_subgem(g, res):
    """Extract a residue as a standalone lower-dimensional graph.

    Colors are relabeled order-preservingly to 0..len(colors)-1 and
    vertices to 0..order-1.  Returns (graph, vertex_map, color_map)
    where the maps send parent ids to the new ids.  Not memoised: the
    3-manifold verdicts run on g itself (see DipoleReducer), so the
    pipeline builds one only in homology.residue_h1, for a residue
    whose H1 no sphere proof has stored, and residue_h1 memoises that
    H1 on g; the sub-gem, with its census and pi1, is then freed.

    The sub-gem skips build's checks and goes straight to the indexing
    step, which still refuses fewer than two colors.  That is sound
    because g passed them: every vertex of the residue meets exactly
    one edge of each residue color, and that edge stays inside the
    residue, so the sub-gem is regular, proper and loopless; and a
    residue is connected by definition.
    """
    cols = sorted(res.colors)
    cmap = {c: i for i, c in enumerate(cols)}
    vmap = {v: i for i, v in enumerate(res.vertices)}
    edges = [(vmap[g.edges[e][0]], vmap[g.edges[e][1]],
              cmap[g.edges[e][2]]) for e in res.edge_ids]
    return (ColoredGraph._indexed(len(cols) - 1, len(vmap), edges),
            vmap, cmap)


def standard_sphere_gem(n):
    """The order-2 gem of the n-sphere: two vertices, all colors."""
    return ColoredGraph.build(n, [(0, 1, c) for c in range(n + 1)])


class DipoleReducer:
    """The dipole-cancelling chain on one residue of g, in g's own ids.

    res is a residue of g, all of g by default; the chain runs on the
    gem that res encodes without building it, and names its dipoles by
    the vertex ids and colors of g.  cancel_next() cancels the first
    dipole by the key (class, u, v), u < v.

    The class serves the verdict, which needs a sequence of regular
    genus 0.  Cancelling a dipole of colors S changes chi for a
    sequence by len - 2 for the two vertices that go, less one for each
    of its consecutive pairs whose cycle count drops, the pairs inside
    S or missing it.  In four colors only a 2-dipole on a diagonal of
    the sequence, a pair of colors that are not consecutive in it,
    drops none of them, and raises chi by 2; 1-, 3- and 2-dipoles on
    consecutive colors change no chi.  So a sequence of genus g needs
    at least g cancellations, and the chain takes those first: when
    cycles are given, the target is the first sequence of greatest
    chi, and a pair is of class 0 when cancelling it as a dipole of its
    current color set would raise the target's chi, else of class 1.
    With no cycles every pair is of class 1, and the chain cancels the
    same dipoles in the same order as repeatedly calling find_dipole
    and cancel_dipole on residue_subgem(g, res), the plain chain kept
    in tests/reference.py: the sub-gem keeps g's order of vertices and
    colors, and cancel_dipole renumbers the survivors in their old
    order, so the first dipole in sorted (u, v) order is the same pair
    under every numbering.

    The state is flat integer tables.  _nbr is a list indexed by g's
    vertex ids: a live vertex's row lists its neighbors by position in
    res's sorted colors, and a cancelled vertex, or one outside res,
    has None.  A color set is a bitmask over those positions, and the
    pairs of positions i < j are numbered in combinations order, so the
    cycle counts are a list by pair number.  Each cancellation costs
    O(1) besides heap and union-find operations, because

    - candidate pairs sit in a min-heap and are re-checked when popped.
      A pair can become a dipole only when a weld adds a color between
      its two vertices, and that weld pushes the pair again, under the
      class of its new color set; a popped pair whose class is no
      longer its color set's is dropped, as that weld pushed it again;
    - set-up queues only the class-0 dipoles, read off g's adjacent
      pairs grouped by the mask of g's colors joining them
      (_adjacent_pairs, memoised on g and shared by every chain on g),
      each group's mask mapped to positions once.  Welds push class-1
      pairs only after the heap first runs dry; then one scan of the
      live rows queues the class-1 dipoles.  Until then no class-1
      pair could be cancelled, and after it the heap holds every dipole,
      so the chain cancels what a queue of every dipole from the start
      would;
    - cancelling a dipole of colors S lowers the {c,d}-cycle count by
      one when {c,d} lies inside S or misses S, and keeps it otherwise;
    - for a color set C the C-residues of the dipole's two vertices
      merge when C misses S, and no C-residue changes otherwise (the
      two vertices already share one), so one union-find per color set
      tells whether a pair lies in different residues of the
      complementary colors;
    - a pair joined by all colors but c is always a dipole, as neither
      vertex is the other's c-neighbor, so one-color sets need none; a
      pair joined by all colors never is;
    - all of that depends on S and on positions only, so it is worked
      out once per mask, the first time the mask is seen, as a plan
      (_dipole_plan, memoised across chains): the complement mask, the
      pair numbers whose count drops, each sequence's chi delta, the
      union-find masks that miss S, the positions to weld, and the
      color set to return.

    pair_counts maps each pair of the residue's colors to its current
    cycle count, read off the list.  The counts start from
    residue_cycle_counts(g, res.colors), and the union-finds, one per
    set of two to len(res.colors) - 1 colors, join the labels of
    residue_labels(g, colors): a bicolored cycle, or a residue over
    colors of res, that meets res lies inside it, so g's counts and
    labels are the residue's.  Each union-find's parent dict holds
    merged labels only, so once g has labelled its residues a chain's
    set-up costs O(len(res)) besides one list of g.nv empty rows.

    chi[j] is the Euler characteristic of the regular embedding for
    the color sequence cycles[j], _chi_formula of the starting counts
    and nv.  A cancellation changes it by the counts it lowers and the
    two vertices it drops, so it is kept up to date, not re-summed.

    Welds keep the graph proper and regular; check() runs build's
    checks on every live row.
    """

    def __init__(self, g, res=None, cycles=()):
        if res is None:
            res = residues(g, g.colors)[0]
        cols = self._cols = tuple(sorted(res.colors))
        k = len(cols)
        pos = {c: i for i, c in enumerate(cols)}
        self._seqs = tuple(tuple(pos[c] for c in seq) for seq in cycles)
        self.n = k - 1
        self.nv = len(res)
        label = residue_labels(g, cols)
        mine = label[res.vertices[0]]
        counts = residue_cycle_counts(g, cols)[mine]
        # pairs of positions i < j in combinations order number the counts
        self._keys = [frozenset(p) for p in itertools.combinations(cols, 2)]
        self._counts = [counts[key] for key in self._keys]
        self.chi = [_chi_formula(counts, seq, self.nv) for seq in cycles]
        self._plans = [None] * (1 << k)     # by dipole mask, built lazily
        # the live vertices' rows by position, read off g's rows
        verts = res.vertices
        pick = operator.itemgetter(*cols)
        whole = len(verts) == g.nv
        if whole:
            nbr = list(map(list, map(pick, g._nbr)))
        else:
            nbr = [None] * g.nv
            for v in verts:
                nbr[v] = list(pick(g._nbr[v]))
        self._nbr = nbr
        # per color set of 2 to k - 1 colors: g's labels, merged labels
        self._uf = [None if cs is None else (residue_labels(g, cs), {})
                    for cs in _union_find_sets(cols)]
        self._full = (1 << k) - 1
        if cycles:
            target = self._seqs[self.chi.index(max(self.chi))]
            cls = self._class = _mask_classes(target, k)
        else:
            cls = self._class = (1,) * (1 << k)
        self._scanned = False       # whether class-1 dipoles are queued
        # queue the class-0 pairs that are dipoles now
        heap = self._heap = []
        for gmask, pairs in _adjacent_pairs(g).items():
            S = 0
            for i, c in enumerate(cols):
                if gmask >> c & 1:
                    S |= 1 << i
            if cls[S]:
                continue
            for u, w in pairs:
                if (whole or label[u] == mine) and self._splits(u, w, S):
                    heap.append((0, u, w))
        heapq.heapify(heap)

    @property
    def pair_counts(self):
        """{frozenset({c, d}): current {c,d}-cycle count}."""
        return dict(zip(self._keys, self._counts))

    def _splits(self, u, w, S):
        """Whether u and w, joined by the colors of S, not all of them,
        lie in different residues of the other colors: a dipole."""
        found = self._uf[self._full ^ S]
        if found is None:
            return True
        label, parent = found
        return _root(parent, label[u]) != _root(parent, label[w])

    def cancel_next(self):
        """Cancel the first dipole; return (u, v, colors) or None."""
        step = self._cancel_first()
        if step is None and not self._scanned:
            self._queue_class_one()
            step = self._cancel_first()
        return step

    def _queue_class_one(self):
        """Queue every dipole, by one scan of the live rows.

        Run once, when the heap first runs dry, so no class-0 dipole is
        left and every one queued is of class 1.
        """
        self._scanned = True
        heap = self._heap
        cls = self._class
        full = self._full
        for u, row in enumerate(self._nbr):
            if row is None:
                continue
            joins = {}
            bit = 1
            for w in row:
                if u < w:
                    joins[w] = joins.get(w, 0) | bit
                bit <<= 1
            for w, S in joins.items():
                if S != full and self._splits(u, w, S):
                    heap.append((cls[S], u, w))
        heapq.heapify(heap)

    def _cancel_first(self):
        """Cancel the first queued dipole; return (u, v, colors) or None.

        A popped pair is a dipole when its two vertices lie in
        different residues of the colors that do not join them (see
        the class docstring); the finds halve the paths they walk, the
        parent dicts holding merged labels only.
        """
        heap = self._heap
        nbr = self._nbr
        uf = self._uf
        plans = self._plans
        cls = self._class
        full = self._full
        scanned = self._scanned
        while heap:
            c, u, v = heapq.heappop(heap)
            nu, nw = nbr[u], nbr[v]
            # edges between live vertices outlast every weld, so a
            # queued pair of live vertices is still adjacent
            if nu is None or nw is None:
                continue
            S = 0
            bit = 1
            for w in nu:
                if w == v:
                    S |= bit
                bit <<= 1
            if S == full or cls[S] != c:
                continue
            plan = plans[S]
            if plan is None:
                plan = plans[S] = _dipole_plan(self._cols, self._seqs, S)
            found = uf[plan.comp]
            if found is not None:
                label, parent = found
                if _root(parent, label[u]) == _root(parent, label[v]):
                    continue
            # cancel: drop u and v, update the counts and chi, merge the
            # residues that miss S, weld the ends outside S
            nbr[u] = nbr[v] = None
            self.nv -= 2
            counts = self._counts
            for i in plan.drops:
                counts[i] -= 1
            self.chi[:] = map(operator.add, self.chi, plan.dchi)
            for mask in plan.merges:
                label, parent = uf[mask]
                ru = _root(parent, label[u])
                rv = _root(parent, label[v])
                if ru != rv:
                    parent[ru] = rv
            for i in plan.weld:
                a, b = nu[i], nw[i]
                na = nbr[a]
                na[i] = b
                nbr[b][i] = a
                # the pair's color set now, for its class
                T = 0
                bit = 1
                for w in na:
                    if w == b:
                        T |= bit
                    bit <<= 1
                if scanned or not cls[T]:
                    heapq.heappush(heap, (cls[T], a, b) if a < b
                                   else (cls[T], b, a))
            return (u, v, plan.colors)
        return None

    def check(self):
        """Raise GemError unless the current rows form a gem.

        build's checks, run on the rows without building a graph, in
        one walk from the first survivor: each row it reaches names
        len(colors) live vertices, none of them the vertex itself, and
        each of those names the vertex back at the same position; and
        the walk reaches every survivor, so every live row is checked.
        """
        nbr = self._nbr
        cols = self._cols
        size = len(nbr)
        live = [v for v, row in enumerate(nbr) if row is not None]
        if not live:
            raise GemError("empty edge list")
        reached = [False] * size
        reached[live[0]] = True
        walk = [live[0]]
        for v in walk:              # walk grows while it is read
            row = nbr[v]
            if len(row) != len(cols):
                raise NotRegularError("vertex %d has %d of %d colors"
                                      % (v, len(row), len(cols)))
            for i, w in enumerate(row):
                if w == v:
                    raise LoopEdgeError("loop at vertex %d (color %d)"
                                        % (v, cols[i]))
                back = nbr[w] if 0 <= w < size else None
                if back is None:
                    raise NotRegularError("vertex %d meets no live vertex "
                                          "of color %d" % (v, cols[i]))
                if back[i] != v:
                    raise NotProperError("vertex %d has two edges of color "
                                         "%d" % (w, cols[i]))
                if not reached[w]:
                    reached[w] = True
                    walk.append(w)
        if len(walk) != len(live):
            raise DisconnectedError("graph is not connected")


def _root(parent, r):
    """The root of label r in a union-find whose parent dict holds merged
    labels only; halves the path it walks."""
    while r in parent:
        p = parent[r]
        if p in parent:
            p = parent[r] = parent[p]
        r = p
    return r


def _adjacent_pairs(g):
    """{mask: [(u, w), ...]}: each pair of adjacent vertices u < w, in
    order, under the mask of g's colors joining them; memoised on g.
    Callers must not mutate the lists."""
    groups = g._memo.get("adjacent pairs")
    if groups is None:
        groups = {}
        for u, row in enumerate(g._nbr):
            joins = {}
            for c, w in enumerate(row):
                if u < w:
                    joins[w] = joins.get(w, 0) | 1 << c
            for w, mask in joins.items():
                groups.setdefault(mask, []).append((u, w))
        g._memo["adjacent pairs"] = groups
    return groups


@functools.lru_cache(maxsize=64)
def _union_find_sets(cols):
    """Per mask over positions of cols, the frozenset of its colors
    when it has 2 to len(cols) - 1 of them, else None."""
    k = len(cols)
    return tuple(frozenset(c for i, c in enumerate(cols) if m >> i & 1)
                 if 1 < m.bit_count() < k else None for m in range(1 << k))


def _drops(S, i, j):
    """Whether cancelling a dipole of mask S lowers the count of the
    pair of positions i, j: the pair lies inside S or misses it."""
    pair = 1 << i | 1 << j
    return (pair & S) in (0, pair)


def _chi_rise(seq, S):
    """How cancelling a dipole of mask S changes chi for the sequence
    seq of positions: len - 2 for the two vertices that go, less its
    consecutive pairs whose count drops."""
    return len(seq) - 2 - sum(_drops(S, a, b)
                              for a, b in zip(seq, seq[1:] + seq[:1]))


@functools.lru_cache(maxsize=64)
def _mask_classes(seq, k):
    """Per mask over k positions, the chain's class of a dipole of
    that mask: 0 when cancelling it raises chi for seq, else 1."""
    return tuple(0 if _chi_rise(seq, S) > 0 else 1 for S in range(1 << k))


_Plan = namedtuple("_Plan", "colors comp drops dchi merges weld")


@functools.lru_cache(maxsize=512)
def _dipole_plan(cols, seqs, S):
    """What cancelling a dipole of mask S does, in positions of cols.

    colors is the set S names, to return, and comp the mask of the
    other positions.  drops are the numbers of the pairs of positions
    (i < j, in combinations order) whose count falls by one: the pairs
    inside S or missing it.  dchi[j] is the change of chi for sequence
    seqs[j] (_chi_rise).  merges are the masks of two or more colors
    that miss S, whose union-finds join the two vertices' labels, and
    weld the positions outside S.  The key holds the colors themselves,
    not just their count, so that a plan can hold the set it names; a
    run sees a few dozen plans.
    """
    k = len(cols)
    comp = ((1 << k) - 1) ^ S
    return _Plan(
        colors=frozenset(c for i, c in enumerate(cols) if S >> i & 1),
        comp=comp,
        drops=tuple(p for p, (i, j) in
                    enumerate(itertools.combinations(range(k), 2))
                    if _drops(S, i, j)),
        dchi=tuple(_chi_rise(seq, S) for seq in seqs),
        merges=tuple(m for m in range(1, comp + 1)
                     if not m & ~comp and m.bit_count() > 1),
        weld=tuple(i for i in range(k) if not S >> i & 1))
