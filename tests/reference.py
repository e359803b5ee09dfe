"""Reference implementations the tests compare the library against.

These are the plain versions the optimised library code replaced or
never needed: the pass-by-pass Tietze loop and the pi1 builder that
reads the whole chain complex, the walk checks and vertex-disjointness
test read walk by walk, the chord index of per-curve groups with its
intersection columns, self-intersections and one-pair intersection
count, the resolution that places marks at every vertex disk, the stack
pass and the pairwise chord-crossing test over those marks, the pairwise
lane comparator, the strand order of all strands ranked from one symbol
by prefix doubling, the central surface built with sign-reversing edges,
the square complex built whole for each cyclic order, bicolored cycles
read as label steps, the sweep that schedules every order afresh, the
scheduler that keeps a set of unplaced squares per cycle, the witness
and gamma forest rules that took the lowest index whatever the curve
length, the wall graphs built as records and the witness rewriting that
walks each collapsed square once per direction, curves kept in label
steps (rewritten once per square) and turned into half-edge walks only
for verification, the dipole chain that rebuilds the graph after every
cancellation and the incremental one on dicts that followed it, the
library chain's current graph rebuilt from its list rows through
build_graph, the gem check that scans every vertex for missing colors
after filling a full incidence table, the diagram's json document built
as dicts for json.dumps, and the text parser that reads every line on
its own.
"""

import heapq
import itertools
from collections import deque
from functools import cmp_to_key
from types import SimpleNamespace

from gemtrisect.cli import _HEADER_RE, GemFile, ParseError
from gemtrisect.diagrams import ExpansionDiverged, _gamma_forest
from gemtrisect.embedding import RotationScheme, _permutation
from gemtrisect.graphs import (ColoredGraph, DisconnectedError, GemError,
                               LoopEdgeError, NotProperError, NotRegularError,
                               bicolored_cycles, build_graph, is_bipartite,
                               residue_cycle_counts, residue_labels, residues,
                               spanning_forest)
from gemtrisect.homology import GroupPresentation, _rotations, chain_complex
from gemtrisect.homology import _free_reduce as _reduce_walk
from gemtrisect.trisection import (CollapseOrdering, Incomplete,
                                   _require_apex, _step_counts, minimize_k)


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
    for colorset, v in cx.cells[1]:
        x, y = sorted(colors - colorset)
        ends.append((cx.position(colorset | {y}, v),
                     cx.position(colorset | {x}, v)))

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
    for colorset, v in cx.cells[2]:
        a, b, c = sorted(colors - colorset)
        e_bc = cx.position(colorset | {a}, v)
        e_ac = cx.position(colorset | {b}, v)
        e_ab = cx.position(colorset | {c}, v)
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


def cycle_steps(cycle):
    """A bicolored cycle's walk as label steps (edge id, +1 or -1), +1
    running the stored edge from its low endpoint to its high: the
    view graphs.Cycle kept before its cycles became half-edge walks."""
    return tuple((h >> 1, -1 if h & 1 else 1) for h in cycle.walk)


def check_walks(scheme, walks):
    """Raise GemError on the first walk that names a half-edge outside
    the scheme, or whose half-edges do not each leave the vertex where
    the one before it arrives, walk by walk."""
    vertex_of = scheme.vertex_of
    for walk in walks:
        for h in walk:
            if not 0 <= h < len(vertex_of):
                bad = min(walk) if min(walk) < 0 else max(walk)
                raise GemError("curve walk names half-edge %d, outside 0..%d"
                               % (bad, len(vertex_of) - 1))
        arrive = [vertex_of[h ^ 1] for h in walk]
        if arrive[-1:] + arrive[:-1] != [vertex_of[h] for h in walk]:
            raise GemError("curve walk does not close up")


def vertex_disjoint(scheme, walks):
    """Whether each walk is vertex-simple and the walks vertex-disjoint."""
    seen = [scheme.vertex_of[h] for walk in walks for h in walk]
    return len(set(seen)) == len(seen)


def _chord_index(scheme, walks):
    """vertex -> [(curve, chords)] over one system's walks.

    A chord is (3 * slot of the arriving half-edge, 3 * slot of the
    leaving one) in the vertex's counterclockwise rotation; each walk
    is read once, so the index costs the total walk length.
    """
    pos, vertex_of = scheme.pos_of, scheme.vertex_of
    index = {}
    for ci, walk in enumerate(walks):
        mine = {}
        for i, h in enumerate(walk):
            mine.setdefault(vertex_of[h], []).append(
                (3 * pos[walk[i - 1] ^ 1], 3 * pos[h]))
        for v, chords in mine.items():
            index.setdefault(v, []).append((ci, chords))
    return index


def _crossings(n, chords_a, chords_b):
    """Signed crossings at one vertex disk, chords of b pushed off left.

    n is 3 * degree.  Chords of a sit at exact slot positions; chords
    of b enter just clockwise and leave just counterclockwise of their
    slots, so interleaving is never ambiguous and the total over all
    vertices equals the homological pairing.
    """
    total = 0
    for ta, ha in chords_a:
        span = (ha - ta) % n
        for tb, hb in chords_b:
            total += (((tb - 1 - ta) % n < span)
                      - ((hb + 1 - ta) % n < span))
    return total


def _intersection_columns(scheme, index_a, index_b, count_b):
    """Column j maps curve i of a to <a_i, b_j>, zeros left out.

    Only chord pairs sharing a vertex are visited.
    """
    cols = [{} for _ in range(count_b)]
    for v, groups_b in index_b.items():
        groups_a = index_a.get(v)
        if groups_a is None:
            continue
        n = 3 * len(scheme.rot[v])
        for j, chords_b in groups_b:
            col = cols[j]
            for i, chords_a in groups_a:
                col[i] = col.get(i, 0) + _crossings(n, chords_a, chords_b)
    return [{i: x for i, x in sorted(col.items()) if x} for col in cols]


def _self_intersections(scheme, index, count):
    """<w, w> for each walk of one system."""
    out = [0] * count
    for v, groups in index.items():
        n = 3 * len(scheme.rot[v])
        for i, chords in groups:
            out[i] += _crossings(n, chords, chords)
    return out


def _signed_intersection(scheme, walk_a, walk_b):
    """Signed count of crossings of walk a with walk b pushed off left."""
    col, = _intersection_columns(scheme, _chord_index(scheme, [walk_a]),
                                 _chord_index(scheme, [walk_b]), 1)
    return col.get(0, 0)


def resolve_every_disk(scheme, walks):
    """(marks, chords) per vertex disk, every disk of the scheme: marks
    are (slot, micro, port) in counterclockwise order, chords pairs of
    mark indices.

    Marks sort by slot, then by place at a corridor's low end (port 2t
    for traversal t) and against it at the high end (port 2t + 1).
    """
    pos, vo = scheme.pos_of, scheme.vertex_of
    place = strand_order(scheme, walks)
    marks = {v: [] for v in range(scheme.nv)}
    flat = [h for walk in walks for h in walk]
    for t, h in enumerate(flat):
        low = h & ~1
        marks[vo[low]].append((pos[low], place[t], 2 * t))
        marks[vo[low + 1]].append((pos[low + 1], -place[t], 2 * t + 1))
    index = [0] * (2 * len(flat))
    for v in marks:
        marks[v].sort()
        for i, (_, _, port) in enumerate(marks[v]):
            index[port] = i
    chords = {v: [] for v in marks}
    t = 0
    for walk in walks:
        for i, h in enumerate(walk):
            # the previous step arrives at the end it does not leave
            prev = t - i + (i - 1) % len(walk)
            arr = 2 * prev + 1 - (walk[i - 1] & 1)
            chords[vo[h]].append((index[arr], index[2 * t + (h & 1)]))
            t += 1
    return marks, chords


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


def stack_crossing_free(marks, chords_at):
    """Check all same-system chords pairwise non-interleaving, a vertex
    at a time in the order of chords_at, by one stack pass per vertex.

    Each mark ends exactly one chord, so the chords at a vertex are
    pairwise non-interleaving exactly when the marks, read in rotation
    order, balance like parentheses.  The witness is the first failing
    vertex and a pair of its chords that interleave (the closing chord
    and the one left open inside it): the library's cut test reports
    the same.
    """
    for v, chords in chords_at.items():
        chord_at = [0] * len(marks[v])
        for i, (a, b) in enumerate(chords):
            chord_at[a] = chord_at[b] = i
        is_open = [False] * len(chords)
        stack = []
        for i in chord_at:
            if not is_open[i]:
                is_open[i] = True
                stack.append(i)
            elif stack[-1] == i:
                stack.pop()
            else:
                return False, (v, chords[i], chords[stack[-1]])
    return True, None


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


def strand_order(scheme, walks):
    """Each traversal's place in one order of all corridor strands.

    Traversals t number the walks' steps in turn.  State 2t reads step
    t's walk forwards, 2t + 1 backwards with each half-edge reversed;
    a state's symbol is the counterclockwise offset of its next leaving
    half-edge from its arrival.  Strands order by the symbols of the
    state that runs them upward: the ranks start from each state's
    single next symbol and double (Manber and Myers) until a round
    splits no class, then ties go to the lower t when it runs upward.
    diagrams._lanes ranks only the strands of each shared corridor,
    from slices of their turn strings.
    """
    pos, rot, vertex_of = scheme.pos_of, scheme.rot, scheme.vertex_of
    sym, jump, down = [], [], []
    for walk in walks:
        base, L = len(down), len(walk)
        for i, h in enumerate(walk):
            fwd, back = walk[(i + 1) % L], walk[i - 1] ^ 1
            sym += ((pos[fwd] - pos[h ^ 1]) % len(rot[vertex_of[fwd]]),
                    (pos[back] - pos[h]) % len(rot[vertex_of[back]]))
            jump += (2 * (base + (i + 1) % L), 2 * (base + (i - 1) % L) + 1)
            down.append(h & 1)

    def dense(keys):
        ids = {k: r for r, k in enumerate(sorted(set(keys)))}
        return [ids[k] for k in keys], len(ids)

    n = len(sym)
    rank, classes = dense(sym)
    while True:
        rank2, classes2 = dense([r * n + rank[j] for r, j in zip(rank, jump)])
        if classes2 == classes:
            break
        rank, classes = rank2, classes2
        jump = [jump[j] for j in jump]
    order = sorted(range(len(down)), key=lambda t: (
        rank[2 * t + down[t]], down[t], -t if down[t] else t))
    place = [0] * len(order)
    for p, t in enumerate(order):
        place[t] = p
    return place


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
            sqs = tuple(sorted(e for e in (h >> 1 for h in cyc.walk)
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


def collapse_schedule(Q, stabilized):
    """The greedy collapse with each witness the lowest-index free cycle.

    Same collapse order as trisection.collapse_schedule, which picks the
    free cycle of least expanded size instead.
    """
    stabilized = tuple(sorted(set(stabilized)))
    unplaced_on = [set(edge.squares) for edge in Q.q1_edges]
    placed = set()
    heap = []

    def place(e):
        placed.add(e)
        for idx in Q.sides[e].values():
            unplaced_on[idx].discard(e)
            if len(unplaced_on[idx]) == 1:
                heapq.heappush(heap, (next(iter(unplaced_on[idx])), idx))

    for e in stabilized:
        place(e)
    for idx, on in enumerate(unplaced_on):
        if len(on) == 1:
            heapq.heappush(heap, (next(iter(on)), idx))
    collapsed, witnesses = [], []
    while heap:
        e, idx = heapq.heappop(heap)
        if e in placed or unplaced_on[idx] != {e}:
            continue
        best = min(i for i in Q.sides[e].values() if unplaced_on[i] == {e})
        collapsed.append(e)
        witnesses.append((Q.q1_edges[best].color, best))
        place(e)
    if len(placed) != len(Q.squares):
        raise Incomplete([e for e in Q.squares if e not in placed],
                         (len(s) for s in unplaced_on))
    return CollapseOrdering(stabilized, collapsed, witnesses)


def set_collapse_schedule(Q, stabilized):
    """trisection.collapse_schedule with a set of unplaced squares per
    Q1 edge and (square, index) heap entries: the same order, witnesses
    and Incomplete."""
    stabilized = tuple(sorted(set(stabilized)))
    square_set = set(Q.squares)
    for e in stabilized:
        if e not in square_set:
            raise GemError("edge %d is not a square of the complex" % e)
    unplaced_on = [set(edge.squares) for edge in Q.q1_edges]
    size_on = _step_counts(Q)
    placed = set()
    heap = []

    def place(e, size):
        placed.add(e)
        for idx in Q.sides[e].values():
            size_on[idx] += size
            on = unplaced_on[idx]
            on.discard(e)
            if len(on) == 1:
                heapq.heappush(heap, (next(iter(on)), idx))

    for e in stabilized:
        place(e, 1)
    for idx, on in enumerate(unplaced_on):
        if len(on) == 1:
            heapq.heappush(heap, (next(iter(on)), idx))
    collapsed, witnesses = [], []
    while heap:
        e, idx = heapq.heappop(heap)
        if e in placed:
            continue
        best = min((i for i in Q.sides[e].values()
                    if len(unplaced_on[i]) == 1), key=size_on.__getitem__)
        collapsed.append(e)
        witnesses.append((Q.q1_edges[best].color, best))
        place(e, size_on[best])
    if len(placed) != len(Q.squares):
        raise Incomplete([e for e in Q.squares if e not in placed],
                         (len(s) for s in unplaced_on))
    return CollapseOrdering(stabilized, collapsed, witnesses)


def gamma_forest(Q, kept, ordering):
    """The kept Q1 edges a spanning forest takes, in index order."""
    return {kept[i] for i in spanning_forest(
        len(Q.q1_nodes), (Q.edge_nodes[idx] for idx in kept))}


def square_sizes(Q, ordering):
    """Expanded size of each square, read off its witness cycle's steps.

    1 for a stabilized square; for a collapsed one, each other step of
    its witness cycle counts 1 if it avoids the apex and its square's
    size if not.  The ordering places those squares first.
    """
    g = Q.graph
    size = {e: 1 for e in ordering.stabilized}
    for e, (_, idx) in zip(ordering.collapsed, ordering.witnesses):
        steps = cycle_steps(Q.q1_edges[idx].cycle)
        size[e] = sum(size[eid] if g.edges[eid][2] == g.n else 1
                      for eid, _ in steps if eid != e)
    return size


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
    nbr = [[None] * (n + 1) for _ in range(nv)]
    for eid, (c, u, v) in enumerate(canon):
        for w, x in ((u, v), (v, u)):
            if inc[w][c] is not None:
                raise NotProperError(
                    "vertex %d has two edges of color %d" % (w, c))
            inc[w][c] = eid
            nbr[w][c] = x
    for w, row in enumerate(inc):
        missing = [c for c in colors if row[c] is None]
        if missing:
            raise NotRegularError(
                "vertex %d missing colors %s" % (w, missing))
    if nv % 2:
        raise OddOrderError("odd number of vertices (%d)" % nv)
    g = ColoredGraph(n, nv, tuple((u, v, c) for c, u, v in canon),
                     tuple(map(tuple, inc)), tuple(map(tuple, nbr)))
    if len(component(g, colors, 0)) != nv:
        raise DisconnectedError("graph is not connected")
    return g


class DipoleReducer:
    """The dipole chain on dicts: the class graphs.DipoleReducer replaced.

    Neighbor rows are dicts by color, every adjacent pair starts in the
    heap, each cancellation tests every pair of colors against the
    dipole's color set, and one union-find per color set of two to
    len(res.colors) - 1 colors holds a parent entry for every label of
    the residue.  Same surface as the library class (cancel_next(),
    chi, nv and pair_counts), plus graph(), which dipole_chain_graph
    gives the library class.
    """

    def __init__(self, g, res=None, cycles=()):
        if res is None:
            res = residues(g, g.colors)[0]
        colors = self._colors = res.colors
        self.n = len(colors) - 1
        self.nv = len(res)
        self.pair_counts = dict(residue_cycle_counts(g, colors)[
            residue_labels(g, colors)[res.vertices[0]]])
        # per pair, the sequences it is a consecutive pair of, with
        # multiplicity; per sequence, the shift when two vertices go
        self._seqs_of = {pair: [] for pair in self.pair_counts}
        self._shift = [len(seq) - 2 for seq in cycles]
        self.chi = []
        for j, seq in enumerate(cycles):
            keys = [frozenset((c, seq[(i + 1) % len(seq)]))
                    for i, c in enumerate(seq)]
            for key in keys:
                self._seqs_of[key].append(j)
            self.chi.append(sum(self.pair_counts[key] for key in keys)
                            - self._shift[j] * (self.nv // 2))
        # the live vertices, each with its neighbor by color
        self._nbr = {v: {c: g.neighbor(v, c)[0] for c in colors}
                     for v in res.vertices}
        self._heap = sorted({(u, w) for u, row in self._nbr.items()
                             for w in row.values() if u < w})
        self._uf = {}       # color set -> (g's labels, parent by label)
        for size in range(2, len(colors)):
            for cs in itertools.combinations(sorted(colors), size):
                label = residue_labels(g, cs)
                self._uf[frozenset(cs)] = (
                    label, {label[v]: label[v] for v in res.vertices})

    def cancel_next(self):
        """Cancel the first dipole; return (u, v, colors) or None."""
        heap = self._heap
        nbr = self._nbr
        while heap:
            u, v = heapq.heappop(heap)
            if u not in nbr or v not in nbr:
                continue
            # edges between live vertices outlast every weld, so a
            # queued pair is still adjacent
            nu = nbr[u]
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
        nu, nw = nbr.pop(u), nbr.pop(v)
        self.nv -= 2
        chi = self.chi
        for j, shift in enumerate(self._shift):
            chi[j] += shift
        for pair, seqs in self._seqs_of.items():
            if pair <= colors or not pair & colors:
                self.pair_counts[pair] -= 1
                for j in seqs:
                    chi[j] -= 1
        # when cset meets colors, u and v already share a residue
        for cset, (_, parent) in self._uf.items():
            if not cset & colors:
                parent[self._root(cset, u)] = self._root(cset, v)
        for c in self._colors - colors:
            a, b = nu[c], nw[c]
            nbr[a][c] = b
            nbr[b][c] = a
            heapq.heappush(self._heap, (a, b) if a < b else (b, a))

    def graph(self):
        """The current graph, numbered as the sub-gem's chain numbers it.

        Survivors and colors are numbered in g's order, as
        residue_subgem and cancel_dipole number them.
        """
        new_id = {w: i for i, w in enumerate(sorted(self._nbr))}
        new_c = {c: i for i, c in enumerate(sorted(self._colors))}
        edges = [(new_id[a], new_id[b], new_c[c])
                 for a, row in self._nbr.items()
                 for c, b in row.items() if a < b]
        return build_graph(self.n, edges)


def dipole_chain_graph(chain):
    """The library chain's current graph, numbered as the sub-gem's
    chain numbers it: survivors and colors in g's order, as
    residue_subgem and cancel_dipole number them.  The chain's rows are
    a list by g's vertex ids, None for a vertex that is not live."""
    live = [w for w, row in enumerate(chain._nbr) if row is not None]
    new_id = {w: i for i, w in enumerate(live)}
    edges = [(new_id[a], new_id[b], i)
             for a in live
             for i, b in enumerate(chain._nbr[a]) if a < b]
    return build_graph(chain.n, edges)


def _wall_graph(g, node_colors, cycle_colors):
    delta3 = frozenset(g.colors) - {g.n}
    fams = sorted((delta3 - {c} for c in node_colors), key=sorted)
    nodes = [(fam, res) for fam in fams for res in residues(g, fam)]
    label_a, label_b = residue_labels(g, fams[0]), residue_labels(g, fams[1])
    first_b = len(residues(g, fams[0]))     # fams[1]'s nodes follow
    a, b = sorted(cycle_colors)
    cycles = bicolored_cycles(g, a, b)
    ends = ((label_a[c.vertices[0]], first_b + label_b[c.vertices[0]])
            for c in cycles)
    return SimpleNamespace(cycle_colors=frozenset(cycle_colors),
                           nodes=tuple(nodes), cycles=tuple(cycles),
                           forest=tuple(spanning_forest(len(nodes), ends)))


def wall_graphs(g, eps):
    """(K over the {eps0,eps2} families, K over {eps1,eps3}).

    For node families c, d the edges are the {a,b}-cycles of the other
    two non-apex colors; each cycle joins the hat-c and hat-d residues
    containing it.  The first carries the {eps1,eps3}-cycles and prunes
    beta; the second carries the {eps0,eps2}-cycles and prunes alpha.
    """
    e0, e1, e2, e3 = _permutation(g, eps).seq[:4]
    return (_wall_graph(g, (e0, e2), (e1, e3)),
            _wall_graph(g, (e1, e3), (e0, e2)))


class StepCurve:
    """A curve in label steps, as the library kept curves before they
    became half-edge walks: ("e", gem edge id, +-1), ("h", handle, +-1)
    and ("sc", handle)."""

    __slots__ = ("kind", "steps", "cycle_index")

    def __init__(self, kind, steps, cycle_index=None):
        self.kind = kind
        self.steps = tuple(steps)
        self.cycle_index = cycle_index


def _step_inverse(s):
    """The step run backwards; a meridian step has none."""
    return None if s[0] == "sc" else (s[0], s[1], -s[2])


def _to_walk(surf, curve):
    """Leaving half-edges of a step curve on the stabilized scheme.

    The apex-free gem edges are numbered in gem order, as the scheme
    lists them; the walk is freely reduced and must close up.
    """
    g = surf.graph
    edge_of_gem = {eid: i for i, eid in enumerate(
        e for e, (_, _, c) in enumerate(g.edges) if c != g.n)}
    walk = []
    for s in curve.steps:
        if s[0] == "e":
            idx = edge_of_gem[s[1]]
            walk.append(2 * idx if s[2] > 0 else 2 * idx + 1)
        elif s[0] == "h":
            h = surf.handles[s[1]]
            if s[2] > 0:
                walk.extend((2 * h.a, 2 * h.b))
            else:
                walk.extend((2 * h.b + 1, 2 * h.a + 1))
        elif s[0] == "sc":
            walk.append(2 * surf.handles[s[1]].m)
        else:
            raise GemError("unknown step %r" % (s,))
    walk = _reduce_walk(walk, lambda h: h ^ 1)
    vo = surf.scheme.vertex_of
    for i, h in enumerate(walk):
        if vo[walk[(i + 1) % len(walk)]] != vo[h ^ 1]:
            raise GemError("curve walk does not close up")
    return walk


def alpha_beta_curves(g, eps, certificate):
    """Alpha and beta read off the wall graph records."""
    k02, k13 = wall_graphs(g, eps)
    alpha = [StepCurve("alpha", (("e",) + s for s in cycle_steps(cyc)), ci)
             for ci, cyc in enumerate(k13.cycles) if ci not in k13.forest]
    beta = [StepCurve("beta", (("e",) + s for s in cycle_steps(cyc)), ci)
            for ci, cyc in enumerate(k02.cycles) if ci not in k02.forest]
    for j in range(certificate.k):
        alpha.append(StepCurve("stab_circle", (("sc", j),)))
        beta.append(StepCurve("stab_circle", (("sc", j),)))
    return alpha, beta


def gamma_curves(Q, certificate):
    """Gamma with each collapsed square walked once per direction.

    Run along its witness cycle, a square is the rest of the cycle
    walked backwards with every step inverted; run against it, the rest
    walked forwards.  Each direction is expanded and cached on its own.
    """
    g = Q.graph
    apex = g.n
    ordering = certificate.ordering
    handle_of = {e: j for j, e in enumerate(ordering.stabilized)}
    witness_of = {e: idx for e, (_, idx) in
                  zip(ordering.collapsed, ordering.witnesses)}
    witness_set = set(witness_of.values())
    if len(witness_set) != len(ordering.collapsed):
        raise GemError("witness cycles are not distinct")
    forest = _gamma_forest(Q, [edge.index for edge in Q.q1_edges
                               if edge.index not in witness_set], ordering)
    cache = {}
    in_progress = set()

    def expand(e, d):
        key = (e, d)
        if key in cache:
            return cache[key]
        if key in in_progress or len(in_progress) > len(Q.squares):
            raise ExpansionDiverged("rewriting loop through edge %d" % e)
        if e in handle_of:
            cache[key] = (("h", handle_of[e], d),)
            return cache[key]
        in_progress.add(key)
        if e not in witness_of:
            raise GemError("apex edge %d is neither stabilized nor collapsed"
                           % e)
        steps = cycle_steps(Q.q1_edges[witness_of[e]].cycle)
        x = next(i for i, (eid, _) in enumerate(steps) if eid == e)
        L = len(steps)
        if d == steps[x][1]:
            raw = [(steps[(x - 1 - t) % L][0],
                    -steps[(x - 1 - t) % L][1]) for t in range(L - 1)]
        else:
            raw = [steps[(x + 1 + t) % L] for t in range(L - 1)]
        out = []
        for eid, dd in raw:
            if g.edges[eid][2] == apex:
                out.extend(expand(eid, dd))
            else:
                out.append(("e", eid, dd))
        in_progress.discard(key)
        cache[key] = tuple(out)
        return cache[key]

    gamma = []
    for edge in Q.q1_edges:
        if edge.index in witness_set or edge.index in forest:
            continue
        steps = []
        for eid, d in cycle_steps(edge.cycle):
            if g.edges[eid][2] == apex:
                steps.extend(expand(eid, d))
            else:
                steps.append(("e", eid, d))
        gamma.append(StepCurve("gamma", _reduce_walk(steps, _step_inverse),
                               edge.index))
    return gamma


def gamma_step_curves(Q, certificate):
    """Gamma in label steps, each collapsed square rewritten once: the
    library's rewriting before it worked in half-edges.

    Run against its witness cycle, a square is the rest of the cycle
    walked forward; run along it, that walk's inverse through
    _step_inverse.  _to_walk turns the curves into the library's walks.
    """
    g = Q.graph
    apex = g.n
    ordering = certificate.ordering
    handle_of = {e: j for j, e in enumerate(ordering.stabilized)}
    witness_of = {e: idx for e, (_, idx) in
                  zip(ordering.collapsed, ordering.witnesses)}
    witness_set = set(witness_of.values())
    if len(witness_set) != len(ordering.collapsed):
        raise GemError("witness cycles are not distinct")
    forest = _gamma_forest(Q, [edge.index for edge in Q.q1_edges
                               if edge.index not in witness_set], ordering)
    rewritten = {}          # collapsed edge -> {direction: steps}
    in_progress = set()

    def expand(e, d):
        if e in handle_of:
            return (("h", handle_of[e], d),)
        if e not in rewritten:
            if e in in_progress:
                raise ExpansionDiverged("rewriting loop through edge %d" % e)
            if e not in witness_of:
                raise GemError("apex edge %d is neither stabilized nor "
                               "collapsed" % e)
            in_progress.add(e)
            steps = cycle_steps(Q.q1_edges[witness_of[e]].cycle)
            x = next(i for i, (eid, _) in enumerate(steps) if eid == e)
            forward = tuple(rewrite(steps[x + 1:] + steps[:x]))
            in_progress.discard(e)
            backward = tuple(_step_inverse(s) for s in reversed(forward))
            rewritten[e] = {-steps[x][1]: forward, steps[x][1]: backward}
        return rewritten[e][d]

    def rewrite(steps):
        out = []
        for eid, d in steps:
            if g.edges[eid][2] == apex:
                out.extend(expand(eid, d))
            else:
                out.append(("e", eid, d))
        return out

    return [StepCurve("gamma", _reduce_walk(rewrite(cycle_steps(edge.cycle)),
                                            _step_inverse), edge.index)
            for edge in Q.q1_edges
            if edge.index not in witness_set and edge.index not in forest]


def _step_json(s):
    if s[0] == "e":
        return {"t": "e", "id": s[1], "d": s[2]}
    if s[0] == "h":
        return {"t": "h", "j": s[1] + 1, "d": s[2]}
    return {"t": "sc", "j": s[1] + 1}


def diagram_json_dict(diagram):
    """The diagram's json document as nested dicts: the export's oracle.

    export_diagram(diagram, "json") writes its bytes directly; they
    must equal json.dumps of this with sorted keys and no spaces.
    """
    return {
        "genus": diagram.genus,
        "k": diagram.surface.k,
        "permutation": list(diagram.surface.eps.seq),
        "alpha": [[_step_json(s) for s in c.steps] for c in diagram.alpha],
        "beta": [[_step_json(s) for s in c.steps] for c in diagram.beta],
        "gamma": [[_step_json(s) for s in c.steps] for c in diagram.gamma],
    }


def parse_text(text):
    """The text format read line by line, each edge line on its own."""
    n = None
    name = None
    attest = {}
    edges = []
    for lno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        # whole-line comments only: attestation values may contain "#"
        if not line or line.startswith("#"):
            continue
        if n is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise ParseError('expected "gem n=<n>" header', lno)
            try:
                n = int(m.group(1))
            except ValueError:      # past Python's limit on int digits
                raise ParseError("n has too many digits", lno) from None
            continue
        if line.startswith("name "):
            name = line[5:].strip()
            continue
        if line.startswith("attest "):
            body = line[7:].strip()
            if "=" not in body:
                raise ParseError("attest needs key=value", lno)
            key, _, value = body.partition("=")
            attest[key.strip()] = value.strip()
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError('expected "u v c"', lno)
        try:
            u, v, c = (int(p) for p in parts)
        except ValueError:
            raise ParseError("edge fields must be integers", lno) from None
        edges.append((u, v, c))
    if n is None:
        raise ParseError("empty input: no gem header")
    g = build_graph(n, edges)
    return GemFile(n, name, attest, g)
