"""Square complexes, stabilization sets and collapse orderings.

With a distinguished apex color, each apex-colored edge of a 5-colored
gem spans a square whose four sides lie on the bicolored {apex,i}
cycles through the edge.  The middle piece of the induced decomposition
collapses to a graph exactly when the squares can be removed one free
side at a time; squares that block the collapse are stabilized instead,
and each stabilization raises the central surface genus by one.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import operator

from .embedding import _permutation, apex_free_rho, rho
from .graphs import (GemError, bicolored_cycles, residue_count,
                     residue_labels, spanning_forest)


class ApexResidueDisconnected(GemError):
    """The subgraph missing the apex color must be connected."""


class Incomplete(GemError):
    """Stuck collapse: no residual square has a free side.

    Attributes:
        residual: square edge ids still unplaced, ascending.
        cycle_counts: unplaced-square count per Q1 edge at the stuck state.
    """

    def __init__(self, residual, cycle_counts):
        self.residual = tuple(sorted(residual))
        self.cycle_counts = tuple(cycle_counts)
        super().__init__("collapse stuck with %d residual squares"
                         % len(self.residual))


class Q1Edge:
    """One {apex,i}-cycle, seen as an edge of the mixed-residue graph."""

    __slots__ = ("index", "color", "cycle", "squares")

    def __init__(self, index, color, cycle, squares):
        self.index = index
        self.color = color              # i, the non-apex color of the cycle
        self.cycle = cycle
        self.squares = squares          # apex edge ids on the cycle

    def __repr__(self):
        return "Q1Edge(%d, color=%d, squares=%s)" % (
            self.index, self.color, list(self.squares))


class QComplex:
    """Squares (apex edges) glued along {apex,i}-cycles.

    sides[e][i] is the q1 edge index of the {apex,i}-cycle through
    square e; q1 edges are numbered color by color, and sides[e] lists
    them by color, so by ascending index.  q1_nodes[j] = (colorset, i)
    names the mixed 3-residue residues(g, colorset)[i], the colorsets
    being {i, j, apex} with i from the even and j from the odd
    positions of eps;
    edge_nodes[idx] is the pair of q1 node ids that q1 edge idx joins,
    low first.

    Only q1_nodes and edge_nodes depend on eps.  A square is an apex
    edge and its sides are the {apex,i}-cycles through it, so the gem
    alone fixes squares, q1_edges and sides.  Each {apex,i}-cycle lies
    in one mixed 3-residue per colorset {i, j, apex}, for either color
    j that eps puts on the other parity from i; that choice of two
    colorsets is all eps decides.
    """

    __slots__ = ("graph", "eps", "squares", "q1_edges", "sides", "q1_nodes",
                 "edge_nodes")

    def __init__(self, graph, eps, squares, q1_edges, sides, q1_nodes,
                 edge_nodes):
        self.graph = graph
        self.eps = eps
        self.squares = squares
        self.q1_edges = q1_edges
        self.sides = sides
        self.q1_nodes = q1_nodes
        self.edge_nodes = edge_nodes

    @property
    def p(self):
        return len(self.squares)


def _require_apex(g, eps):
    if g.n != 4:
        raise GemError("square complex needs dimension 4, got %d" % g.n)
    eps = _permutation(g, eps)
    others = frozenset(g.colors) - {4}
    count = residue_count(g, others)
    if count != 1:
        raise ApexResidueDisconnected(
            "complement of color 4 splits into %d residues" % count)
    return eps


_SquareParts = collections.namedtuple("_SquareParts",
                                      "squares q1_edges sides")


def _squares(g):
    """The eps-free part of g's square complex, built once per graph.

    Squares, Q1 edges and sides do not depend on eps (see QComplex), so
    they are kept on g; callers must not mutate them.  The memo holds
    them without g: a QComplex there would tie g into a reference cycle
    and keep it alive until the cyclic collector runs.  The scheduler
    reads only these three parts.  An {i,4}-cycle's walk starts on its
    color-i edge and alternates, so its squares are its odd half-edges.
    """
    parts = g._memo.get("Q")
    if parts is None:
        q1_edges = []
        sides = {eid: {} for eid in g.edge_ids(4)}
        for i in range(4):
            for cyc in bicolored_cycles(g, i, 4):
                sqs = tuple(sorted(h >> 1 for h in cyc.walk[1::2]))
                edge = Q1Edge(len(q1_edges), i, cyc, sqs)
                q1_edges.append(edge)
                for e in sqs:
                    sides[e][i] = edge.index
        for e, by_color in sides.items():
            if len(by_color) != 4:
                raise GemError("square %d has %d sides" % (e, len(by_color)))
        parts = g._memo["Q"] = _SquareParts(tuple(sorted(sides)),
                                            tuple(q1_edges), sides)
    return parts


def build_Q(g, eps):
    """Square complex of the gem for the given cyclic order.

    The squares, Q1 edges and sides come from _squares, once per graph.
    Each call adds only the Q1 node labels of its order, read off the
    residue census g already caches; of the pipeline, only the diagram's
    gamma curves read them, so the sweep schedules on _squares alone.
    """
    eps = _require_apex(g, eps)
    squares, q1_edges, sides = _squares(g)

    e0, e1, e2, e3 = eps.seq[:4]
    q1_nodes = []
    ends = {i: [] for i in range(4)}    # color -> (first node id, labels)
    for s in sorted((frozenset((i, j, 4)) for i in (e0, e2) for j in (e1, e3)),
                    key=sorted):
        for i in s - {4}:
            ends[i].append((len(q1_nodes), residue_labels(g, s)))
        q1_nodes.extend((s, idx) for idx in range(residue_count(g, s)))
    edge_nodes = []
    for edge in q1_edges:
        (first_a, label_a), (first_b, label_b) = ends[edge.color]
        v = edge.cycle.start
        a, b = first_a + label_a[v], first_b + label_b[v]
        edge_nodes.append((a, b) if a < b else (b, a))
    return QComplex(g, eps, squares, q1_edges, sides, tuple(q1_nodes),
                    tuple(edge_nodes))


def stabilization_set(g, eps):
    """Spanning forest of apex edges over the {eps0,eps3}-cycles.

    Contracting every {eps0,eps3}-cycle of the gem to a point leaves the
    apex edges as a multigraph whose components match the
    {eps0,eps3,apex}-residues; a spanning forest of it (lowest edge ids
    first) is the stabilization set, of size
    g_{eps0,eps3} - g_{eps0,eps3,apex}.

    Not memoised: a sweep stops at its genus floor, most often after
    its first order, and the labels it reads are the census g caches.
    """
    eps = _require_apex(g, eps)
    # the {eps0,eps3}-cycles are the {eps0,eps3}-residues
    pair = frozenset((eps.seq[0], eps.seq[3]))
    cyc_of = residue_labels(g, pair)
    squares = g.edge_ids(4)
    ends = ((cyc_of[g.edges[e][0]], cyc_of[g.edges[e][1]]) for e in squares)
    return tuple(
        squares[i] for i in spanning_forest(residue_count(g, pair), ends))


class CollapseOrdering:
    """A placement of every square: stabilized prefix, collapsed suffix.

    witnesses[j] = (color, q1 edge index) for collapsed[j]: the cycle
    whose other squares were all placed earlier, freeing the side.
    """

    __slots__ = ("stabilized", "collapsed", "witnesses")

    def __init__(self, stabilized, collapsed, witnesses):
        self.stabilized = tuple(stabilized)
        self.collapsed = tuple(collapsed)
        self.witnesses = tuple(witnesses)

    @property
    def k(self):
        return len(self.stabilized)

    @property
    def sequence(self):
        return self.stabilized + self.collapsed

    def __repr__(self):
        return "CollapseOrdering(k=%d, collapsed=%d)" % (
            self.k, len(self.collapsed))


def collapse_schedule(Q, stabilized):
    """Greedy free-side collapse after placing `stabilized` up front.

    Q is a QComplex, or the eps-free parts of one: only its squares,
    sides and q1_edges are read.  A square is schedulable when one of
    its four cycles has no other unplaced square.  Ties break to the
    lowest square id.  Of the cycles that free a square, the witness is
    the one of least expanded size (see cycle_sizes), then of lowest q1
    edge index, so the diagram rewrites each collapsed square by the
    shortest walk on offer; the choice leaves the collapse order alone.
    Raises Incomplete when the residual squares all sit on cycles with
    two or more of them.

    Each Q1 edge keeps the count and the XOR of its unplaced squares,
    so the XOR names the square once the count is 1.  The heap holds
    square * |Q1 edges| + index, which orders as (square, index) does.
    """
    stabilized = tuple(sorted(set(stabilized)))
    square_set = set(Q.squares)
    for e in stabilized:
        if e not in square_set:
            raise GemError("edge %d is not a square of the complex" % e)

    sides = Q.sides
    width = len(Q.q1_edges)
    count = [len(edge.squares) for edge in Q.q1_edges]
    alone = [functools.reduce(operator.xor, edge.squares, 0)
             for edge in Q.q1_edges]
    size_on = _step_counts(Q)
    heap = []

    def place(e, size):
        for idx in sides[e].values():
            size_on[idx] += size
            count[idx] -= 1
            alone[idx] ^= e
            if count[idx] == 1:
                heapq.heappush(heap, alone[idx] * width + idx)

    for e in stabilized:
        place(e, 1)
    heap += [alone[idx] * width + idx
             for idx, c in enumerate(count) if c == 1]
    heapq.heapify(heap)

    collapsed = []
    witnesses = []
    while heap:
        e, idx = divmod(heapq.heappop(heap), width)
        # a queued square stays alone on its cycle until it is placed,
        # which empties the cycle
        if not count[idx]:
            continue
        # e may sit alone on several cycles; they come by ascending
        # index, and min keeps the first of equal sizes
        best = min((i for i in sides[e].values() if count[i] == 1),
                   key=size_on.__getitem__)
        collapsed.append(e)
        witnesses.append((Q.q1_edges[best].color, best))
        place(e, size_on[best])

    if len(stabilized) + len(collapsed) != len(Q.squares):
        placed = set(stabilized).union(collapsed)
        raise Incomplete([e for e in Q.squares if e not in placed], count)
    return CollapseOrdering(stabilized, collapsed, witnesses)


def _step_counts(Q):
    """Non-apex step count of each Q1 edge: one per square on its cycle."""
    return [len(edge.squares) for edge in Q.q1_edges]


def cycle_sizes(Q, ordering):
    """Expanded size of each Q1 edge's walk under an ordering.

    The diagram rewrites a stabilized square as one handle step and a
    collapsed square as the rest of its witness cycle, so a square's
    expanded size is 1 when stabilized, and otherwise the size of its
    witness cycle without it.  A cycle's size is its non-apex step
    count, one per square since the cycle alternates colors, plus the
    sizes of its squares.  Summed in placement order, a cycle holds
    every placed square's size, so when a square is collapsed its
    witness holds the others' sizes: collapse_schedule keeps the same
    sums to pick each witness, and this replays a finished ordering.
    Integers only, so the sums are exact.
    """
    size_on = _step_counts(Q)

    def place(e, size):
        for idx in Q.sides[e].values():
            size_on[idx] += size

    for e in ordering.stabilized:
        place(e, 1)
    for e, (_, idx) in zip(ordering.collapsed, ordering.witnesses):
        place(e, size_on[idx])
    return size_on


def verify_ordering(Q, ordering):
    """Re-check an ordering against the free-side property.

    Independent of the scheduler: verifies the placement is a
    permutation of the squares and that each collapsed square is the
    last unplaced one on its witness cycle.  Returns (True, None) or
    (False, first violation message).
    """
    seq = ordering.sequence
    if sorted(seq) != list(Q.squares):
        return False, "placement is not a permutation of the squares"
    if len(ordering.witnesses) != len(ordering.collapsed):
        return False, "witness count differs from collapsed count"
    position = {e: j for j, e in enumerate(seq)}
    k = ordering.k
    for j, (e, (color, idx)) in enumerate(
            zip(ordering.collapsed, ordering.witnesses)):
        edge = Q.q1_edges[idx]
        if edge.color != color:
            return False, ("witness for square %d names color %d but cycle "
                           "%d has color %d" % (e, color, idx, edge.color))
        if e not in edge.squares:
            return False, ("square %d does not lie on its witness cycle %d"
                           % (e, idx))
        late = [f for f in edge.squares
                if f != e and position[f] > position[e]]
        if late:
            return False, ("square %d placed before square %d on its "
                           "witness cycle %d" % (late[0], e, idx))
    return True, None


class TrisectionCertificate:
    """Outcome of a scheduled collapse for one cyclic order.

    genus = rho of the apex-free subgraph plus the stabilization count;
    mode records whether the gem was certified closed or bounded.
    """

    __slots__ = ("eps", "ordering", "k", "genus", "mode", "rho_surface",
                 "rho_base")

    def __init__(self, eps, ordering, genus, mode, rho_surface, rho_base):
        self.eps = eps
        self.ordering = ordering
        self.k = ordering.k
        self.genus = genus
        self.mode = mode
        self.rho_surface = rho_surface
        self.rho_base = rho_base

    def sort_key(self):
        return (self.genus, self.k, self.eps.seq)

    def as_dict(self):
        def num(x):
            return int(x) if x.denominator == 1 else str(x)
        return {
            "eps": list(self.eps.seq),
            "apex": 4,
            "k": self.k,
            "genus": num(self.genus),
            "mode": self.mode,
            "rho_surface": num(self.rho_surface),
            "rho_base": num(self.rho_base),
            "stabilized": list(self.ordering.stabilized),
            "collapsed": list(self.ordering.collapsed),
            "witnesses": [list(w) for w in self.ordering.witnesses],
        }

    def __repr__(self):
        return "TrisectionCertificate(genus=%s, k=%d, eps=%s)" % (
            self.genus, self.k, list(self.eps.seq))


def certificate(g, eps, ordering, mode="closed"):
    """Assemble a certificate from a completed ordering."""
    eps = _require_apex(g, eps)
    base = apex_free_rho(g, eps)
    return TrisectionCertificate(eps, ordering, base + ordering.k, mode,
                                 rho(g, eps), base)


def minimize_k(g, eps, budget=0, mode="closed", schedules=None):
    """Search for a small stabilization set; never worse than the forest.

    Greedy from the empty set; each failure stabilizes one residual
    square whose cycles are closest to free (lowest unplaced counts,
    then lowest id).  If the additions reach the forest size the forest
    itself is used, which always schedules.  A positive budget
    additionally tries explicit subsets (smallest first, at most
    `budget` schedule attempts) below the best size found, skipping the
    sets the greedy already found stuck.

    Only the forest, and with it the greedy's bail-out and the budget's
    bound, depends on eps: a schedule reads the eps-free squares alone.
    So `schedules`, a dict from stabilized set to its outcome (the
    ordering, or the Incomplete it raised), may be shared by calls on
    one graph, and sweep shares one across its orders; each call still
    takes the same steps and returns the same certificate as alone.
    """
    forest = stabilization_set(g, eps)
    Q = _squares(g)
    if schedules is None:
        schedules = {}

    def schedule(stab):
        key = frozenset(stab)
        out = schedules.get(key)
        if out is None:
            try:
                out = collapse_schedule(Q, stab)
            except Incomplete as stuck:
                # kept without its traceback: its frames hold schedules,
                # a reference cycle that would keep g until collected
                out = stuck.with_traceback(None)
            schedules[key] = out
        return out

    stab = []
    stuck_sets = set()
    while True:
        best = schedule(stab)
        if not isinstance(best, Incomplete):
            break
        stuck_sets.add(frozenset(stab))
        if len(stab) + 1 >= len(forest):
            best = schedule(forest)
            if isinstance(best, Incomplete):
                raise best
            break
        counts = best.cycle_counts

        def key(e):
            return (min(counts[i] for i in Q.sides[e].values()), e)
        stab.append(min(best.residual, key=key))

    if budget > 0 and best.k > 0:
        subsets = itertools.chain.from_iterable(
            itertools.combinations(Q.squares, size) for size in range(best.k))
        subsets = (c for c in subsets if frozenset(c) not in stuck_sets)
        for _, combo in zip(range(budget), subsets):
            out = schedule(combo)
            if not isinstance(out, Incomplete):
                best = out
                break

    return certificate(g, eps, best, mode)


def sweep(g, orders, budget=0, mode="closed"):
    """The certificate of least sort_key over the cyclic orders.

    An order's certificate has genus floor + k with k >= 0, its floor
    being apex_free_rho(g, eps), so its sort_key is at least
    (floor, 0, eps.seq).  One census of the apex-free residue gives
    every floor, and the floor is memoised per induced 4-color order,
    so the 12 orders compute 3 and the winner's certificate reuses
    its own.  The orders run by (floor, eps.seq), and the sweep
    stops at the first whose bound is not below the best sort_key so
    far: every later order's bound is higher still, so the winner is
    the one a run of every order would pick.

    The orders that run share one schedules dict, so each stabilized
    set is scheduled once however many orders try it.  The dict lives
    for this call only: it holds every set tried, which is at most the
    greedy's steps plus `budget` per order.
    """
    floors = []
    for eps in orders:
        eps = _require_apex(g, eps)
        floors.append((apex_free_rho(g, eps), eps.seq, eps))
    floors.sort(key=lambda f: f[:2])
    schedules = {}
    best = None
    for floor, seq, eps in floors:
        if best is not None and (floor, 0, seq) >= best.sort_key():
            break
        cert = minimize_k(g, eps, budget, mode, schedules)
        if best is None or cert.sort_key() < best.sort_key():
            best = cert
    return best
