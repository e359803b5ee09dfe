"""Reference implementations the tests compare the library against.

These are the plain versions the optimised library code replaced or
never needed: the pass-by-pass Tietze loop and the pi1 builder that
reads the whole chain complex, the one-pair intersection count, the
pairwise chord-crossing test, the pairwise lane comparator, the central
surface built with sign-reversing edges, the square complex built whole
for each cyclic order, the sweep that schedules every order afresh,
the dipole chain that rebuilds the graph
after every cancellation, and the gem check that scans every vertex
for missing colors after filling a full incidence table.
"""

from collections import deque
from functools import cmp_to_key
from types import SimpleNamespace

from gemtrisect.diagrams import _chord_index, _intersection_columns
from gemtrisect.embedding import RotationScheme, _permutation
from gemtrisect.graphs import (ColoredGraph, DisconnectedError, GemError,
                               LoopEdgeError, NotProperError, NotRegularError,
                               bicolored_cycles, build_graph, is_bipartite,
                               residue_labels, residues)
from gemtrisect.homology import GroupPresentation, _rotations, chain_complex
from gemtrisect.trisection import _require_apex, minimize_k


def _free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    while len(out) > 1 and out[0] == -out[-1]:
        out = out[1:-1]
    return tuple(out)


def _substitute(word, gen, repl):
    """Replace letter gen (1-based) by the word repl in a relator."""
    out = []
    for x in word:
        if x == gen:
            out.extend(repl)
        elif x == -gen:
            out.extend(-y for y in reversed(repl))
        else:
            out.append(x)
    return tuple(out)


def build_pi1(g):
    """pi1 presentation from chain_complex(g), simplified by _tietze."""
    cx = chain_complex(g)
    colors = set(g.colors)

    # edges are directed from their smaller-label endpoint to the larger one
    ends = []
    for r in cx.cells[1]:
        x, y = sorted(colors - r.colors)
        v = r.vertices[0]
        ends.append((cx.position(r.colors | {y}, v),
                     cx.position(r.colors | {x}, v)))

    # spanning tree by breadth-first search over the multigraph
    nodes = len(cx.cells[0])
    adj = [[] for _ in range(nodes)]
    for eid, (t, h) in enumerate(ends):
        adj[t].append((h, eid))
        adj[h].append((t, eid))
    parent_edge = {0: None}
    order = [0]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for w, eid in adj[v]:
            if w not in parent_edge:
                parent_edge[w] = eid
                order.append(w)
    tree = {e for e in parent_edge.values() if e is not None}
    gen_of = {}
    for eid in range(len(ends)):
        if eid not in tree:
            gen_of[eid] = len(gen_of) + 1   # 1-based letters

    # one relator per triangle: with labels a<b<c the boundary path is
    # (a->b)(b->c)(c->a), i.e. E_ab . E_bc . E_ac^-1
    words = []
    for r in cx.cells[2]:
        a, b, c = sorted(colors - r.colors)
        v = r.vertices[0]
        e_bc = cx.position(r.colors | {a}, v)
        e_ac = cx.position(r.colors | {b}, v)
        e_ab = cx.position(r.colors | {c}, v)
        word = []
        for eid, sign in ((e_ab, 1), (e_bc, 1), (e_ac, -1)):
            if eid in gen_of:
                word.append(sign * gen_of[eid])
        words.append(_free_reduce(word))

    return _tietze(GroupPresentation(len(gen_of), [w for w in words if w]))


def _tietze(pres):
    """Tietze moves pass by pass, every relator reduced on every pass."""
    gens = pres.num_generators
    words = [list(w) for w in pres.relators]
    alive = [True] * (gens + 1)   # 1-based
    changed = True
    while changed:
        changed = False
        words = [list(_free_reduce(w)) for w in words]
        words = [w for w in words if w]
        # kill generators forced trivial, merge identified pairs
        for w in list(words):
            if len(w) == 1:
                gen = abs(w[0])
                words.remove(w)
                words = [list(_substitute(u, gen, ())) for u in words]
                alive[gen] = False
                changed = True
                break
            if len(w) == 2:
                x, y = w
                if abs(x) != abs(y):
                    # x*y = 1 -> gen|x| = (y)^-sign ...
                    gen = abs(x)
                    repl = [-y] if x > 0 else [y]
                    words.remove(w)
                    words = [list(_substitute(u, gen, repl)) for u in words]
                    alive[gen] = False
                    changed = True
                    break
        if changed:
            continue
        # a generator appearing exactly once overall is free to solve
        count = {}
        where = {}
        for wi, w in enumerate(words):
            for x in w:
                count[abs(x)] = count.get(abs(x), 0) + 1
                where[abs(x)] = wi
        for gen, cnt in sorted(count.items()):
            if cnt == 1:
                wi = where[gen]
                words.pop(wi)
                alive[gen] = False
                changed = True
                break

    # compact the surviving generators
    remap = {}
    for gen in range(1, gens + 1):
        if alive[gen]:
            remap[gen] = len(remap) + 1
    final = []
    seen = set()
    for w in words:
        ww = tuple((1 if x > 0 else -1) * remap[abs(x)] for x in w)
        key = min(_rotations(ww))
        if key not in seen:
            seen.add(key)
            final.append(ww)
    return GroupPresentation(len(remap), final)


def _signed_intersection(scheme, walk_a, walk_b):
    """Signed count of crossings of walk a with walk b pushed off left."""
    col, = _intersection_columns(scheme, _chord_index(scheme, [walk_a]),
                                 _chord_index(scheme, [walk_b]), 1)
    return col.get(0, 0)


def signed_surface(g, eps, stabilized):
    """Central surface as a scheme with sign-reversing edges.

    Every rotation lists eps without the apex, handle ends in the apex
    corner; gem edges and handle a-edges reverse orientation, b- and
    m-edges do not.  Returns the scheme and `ccw`, each half-edge's slot
    once the rotations of bipartition class 1 are read backwards (a
    handle vertex taking the class opposite its low end), or None for a
    non-bipartite gem.
    """
    eps = _permutation(g, eps)
    apex = g.n
    ends, neg, edge_of_gem = [], [], {}
    for eid, (u, v, c) in enumerate(g.edges):
        if c != apex:
            edge_of_gem[eid] = len(ends)
            ends.append((u, v))
            neg.append(1)
    rotations = [[] for _ in range(g.nv)]
    for w in range(g.nv):
        for c in eps.drop(apex):
            e = g.incident(w, c)
            idx = edge_of_gem[e]
            rotations[w].append(2 * idx if g.edges[e][0] == w else 2 * idx + 1)
    bip, cls = is_bipartite(g)
    classes = list(cls) if bip else None
    for eid in sorted(set(stabilized)):
        u, v, _ = g.edges[eid]
        x = len(rotations)
        ia, ib, im = len(ends), len(ends) + 1, len(ends) + 2
        ends.extend([(u, x), (x, v), (x, x)])
        neg.extend([1, 0, 0])
        rotations[u].append(2 * ia)
        rotations[v].append(2 * ib + 1)
        rotations.append([2 * ia + 1, 2 * im, 2 * ib, 2 * im + 1])
        if classes is not None:
            classes.append(classes[u] ^ 1)
    scheme = RotationScheme(len(rotations), ends, rotations, neg)
    ccw = None
    if classes is not None:
        ccw = {}
        for v, slots in enumerate(rotations):
            for i, h in enumerate(slots if classes[v] == 0 else slots[::-1]):
                ccw[h] = i
    return SimpleNamespace(scheme=scheme, ccw=ccw)


def crossing_free(marks, chords_at):
    """Test every pair of same-system chords at each vertex for interleaving."""
    for v, chords in chords_at.items():
        r = len(marks[v])
        for i in range(len(chords)):
            a, b = chords[i]
            for j in range(i + 1, len(chords)):
                c, d = chords[j]
                inside_c = (c - a) % r < (b - a) % r
                inside_d = (d - a) % r < (b - a) % r
                if inside_c != inside_d:
                    return False, (v, chords[i], chords[j])
    return True, None


def corridor_map(walks):
    """Edge -> its traversals (walk, step, down), in walk order."""
    corridors = {}
    for wi, walk in enumerate(walks):
        for i, h in enumerate(walk):
            corridors.setdefault(h >> 1, []).append((wi, i, h & 1))
    return corridors


def lane_orders(scheme, walks, corridors):
    """Edge -> its traversals from the lowest lane up, compared pairwise.

    Two strands are followed upward in lockstep, a downward traversal
    reading its walk backwards with each half-edge reversed, until they
    leave one vertex by different half-edges; the one leaving closer
    counterclockwise to the shared arrival takes the lower lane.  Walks
    of lengths lx and ly that agree for lx * ly + 1 steps agree forever;
    of two such parallel strands the lower (walk, step) goes first
    exactly when it runs upward.
    """
    pos = scheme.pos_of

    def up_exits(walk_id, step, down):
        walk = walks[walk_id]
        j = step
        while True:
            j = (j - 1 if down else j + 1) % len(walk)
            yield walk[j] ^ 1 if down else walk[j]

    lanes = {}
    for e, travs in corridors.items():
        def compare(tx, ty):
            if tx == ty:
                return 0
            gx, gy = up_exits(*tx), up_exits(*ty)
            t_in = 2 * e + 1
            limit = len(walks[tx[0]]) * len(walks[ty[0]]) + 1
            for _ in range(limit):
                hx, hy = next(gx), next(gy)
                if hx != hy:
                    deg = len(scheme.rot[scheme.vertex_of[t_in]])
                    dx = (pos[hx] - pos[t_in]) % deg
                    dy = (pos[hy] - pos[t_in]) % deg
                    return -1 if dx < dy else 1
                t_in = hx ^ 1
            kx, ky = tx[:2], ty[:2]
            low = tx if kx < ky else ty
            return -1 if (kx < ky) != bool(low[2]) else 1

        lanes[e] = sorted(travs, key=cmp_to_key(compare))
    return lanes


def build_Q(g, eps):
    """Square complex of one cyclic order, every part built for it.

    Each q1 edge carries its own node pair as `nodes`; the library's
    QComplex keeps those pairs in `edge_nodes` instead.
    """
    eps = _require_apex(g, eps)
    e0, e1, e2, e3, apex = eps.seq
    family_of = {}
    for i in (e0, e2):
        for j in (e1, e3):
            s = frozenset((i, j, apex))
            family_of.setdefault(i, []).append(s)
            family_of.setdefault(j, []).append(s)
    for c in (e0, e1, e2, e3):
        family_of[c].sort(key=sorted)

    q1_nodes = []
    first = {}              # colorset -> id of its first node
    for s in sorted({fam for fams in family_of.values() for fam in fams},
                    key=sorted):
        first[s] = len(q1_nodes)
        q1_nodes.extend((s, res) for res in residues(g, s))

    q1_edges = []
    sides = {eid: {} for eid in g.edge_ids(apex)}
    for i in sorted(c for c in g.colors if c != apex):
        fam_a, fam_b = family_of[i]
        label_a, label_b = residue_labels(g, fam_a), residue_labels(g, fam_b)
        for cyc in bicolored_cycles(g, i, apex):
            v0 = cyc.vertices[0]
            nodes = tuple(sorted((first[fam_a] + label_a[v0],
                                  first[fam_b] + label_b[v0])))
            sqs = tuple(sorted(e for e in cyc.edge_ids
                               if g.edges[e][2] == apex))
            edge = SimpleNamespace(index=len(q1_edges), color=i, cycle=cyc,
                                   nodes=nodes, squares=sqs)
            q1_edges.append(edge)
            for e in sqs:
                sides[e][i] = edge.index

    for e, by_color in sides.items():
        if len(by_color) != 4:
            raise GemError("square %d has %d sides" % (e, len(by_color)))
    return SimpleNamespace(graph=g, eps=eps, squares=tuple(sorted(sides)),
                           q1_nodes=tuple(q1_nodes), q1_edges=tuple(q1_edges),
                           sides=sides)


def sweep(g, orders, budget=0, mode="closed"):
    """minimize_k on each order alone; the least sort_key, first on ties.

    trisection.sweep shares one schedule per stabilized set across its
    orders; this loop schedules every order afresh.
    """
    best = None
    for eps in orders:
        cert = minimize_k(g, eps, budget=budget, mode=mode)
        if best is None or cert.sort_key() < best.sort_key():
            best = cert
    return best


def find_dipole(g):
    """First cancellable dipole as (u, v, colors), or None.

    A pair joined by exactly the colors S is a dipole when the two
    vertices lie in different residues of the complementary colors;
    cancelling such a pair preserves the represented manifold.  With
    cancel_dipole this is the reference chain that DipoleReducer
    reproduces incrementally.
    """
    joins = {}
    for u, v, c in g.edges:
        joins.setdefault((u, v), set()).add(c)
    for (u, v), S in sorted(joins.items()):
        if len(S) == g.n + 1:
            continue
        label = residue_labels(g, frozenset(g.colors) - S)
        if label[u] != label[v]:
            return (u, v, frozenset(S))
    return None


def cancel_dipole(g, u, v, colors):
    """Delete a dipole pair and weld the dangling ends color-wise."""
    colors = frozenset(colors)
    keep = [w for w in range(g.nv) if w != u and w != v]
    remap = {w: i for i, w in enumerate(keep)}
    edges = []
    for a, b, c in g.edges:
        if a == u or a == v or b == u or b == v:
            continue
        edges.append((remap[a], remap[b], c))
    for c in g.colors:
        if c in colors:
            continue
        a = g.neighbor(u, c)[0]
        b = g.neighbor(v, c)[0]
        edges.append((remap[a], remap[b], c))
    return build_graph(g.n, edges)


class OddOrderError(GemError):
    pass


def component(g, colorset, start):
    """Vertices reachable from start using only colorset edges."""
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for c in colorset:
            w, _ = g.neighbor(v, c)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def build(n, edge_list):
    """ColoredGraph.build with a rule-by-rule check of the gem contract.

    After the id, color and loop checks it fills an incidence table of
    nv * (n + 1) slots, refuses two edges of one color at a vertex,
    then scans every vertex for missing colors, checks for an odd
    order and searches for connectivity from vertex 0.
    """
    if n < 1:
        raise GemError("dimension must be at least 1")
    colors = range(n + 1)
    verts = {w for u, v, c in edge_list for w in (u, v)}
    if not verts:
        raise GemError("empty edge list")
    nv = len(verts)
    top = max(verts)
    if min(verts) != 0 or top != nv - 1:
        raise GemError("vertex ids must be 0..%d with no gaps" % top)
    for u, v, c in edge_list:
        if c not in colors:
            raise GemError("color %r outside 0..%d" % (c, n))
        if u == v:
            raise LoopEdgeError("loop at vertex %d (color %d)" % (u, c))
    if n >= len(edge_list):
        raise NotRegularError("%d edges cannot give a vertex all %d "
                              "colors" % (len(edge_list), n + 1))
    canon = sorted((c, u, v) if u < v else (c, v, u)
                   for u, v, c in edge_list)
    inc = [[None] * (n + 1) for _ in range(nv)]
    for eid, (c, u, v) in enumerate(canon):
        for w in (u, v):
            if inc[w][c] is not None:
                raise NotProperError(
                    "vertex %d has two edges of color %d" % (w, c))
            inc[w][c] = eid
    for w, row in enumerate(inc):
        missing = [c for c in colors if row[c] is None]
        if missing:
            raise NotRegularError(
                "vertex %d missing colors %s" % (w, missing))
    if nv % 2:
        raise OddOrderError("odd number of vertices (%d)" % nv)
    g = ColoredGraph(n, nv, tuple((u, v, c) for c, u, v in canon),
                     tuple(map(tuple, inc)))
    if len(component(g, colors, 0)) != nv:
        raise DisconnectedError("graph is not connected")
    return g
