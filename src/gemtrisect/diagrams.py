"""Curve systems on the stabilized central surface, with verification.

The three systems live combinatorially on the surface built by
`stabilized_surface`: alpha and beta are bicolored cycles of the two
color pairs that avoid the apex (minus a spanning forest's worth per
wall graph, plus the handle meridians), gamma is the surviving part of
the square-complex 1-skeleton, its shortest cycles, rewritten through
witness cycles until no apex edge remains.

Curves are half-edge walks on that surface's scheme from the start
(see Curve), as the gem's bicolored cycles are born as walks (see
graphs.Cycle): alpha and beta take their cycles' walks as they are,
gamma expands the apex half-edges of its cycles through witnesses and
is freely reduced by cancelling h against h ^ 1, the verifier reads the
walks as they are, checking only that each names half-edges of the
surface and closes up, and the exports decode them into label steps.

Verification is homological plus cut-combinatorial, on the oriented
rotation scheme of the surface: every rotation reads counterclockwise,
so a half-edge's slot is `scheme.pos_of`.  Curves are resolved into
disjoint strands inside edge corridors, laid in lanes (see _lanes):
the strands of each corridor run twice or more are ranked by slices of
their counterclockwise turn strings, so parallel copies of a curve
resolve side by side, and crossings are decided at vertex disks by the
rotation order.  Once a
system of k curves resolves into disjoint simple closed curves C, the
Z/2 exact sequence H2(S) -> H2(S, C) -> H1(C) -> H1(S) of the closed
connected surface S gives 1 + k - rank<[c1], ..., [ck]> regions of S
minus C, so the cut test reads its region count off the system's Z/2
rank.  Cross-system geometric disjointness is not claimed; intersection
numbers are the honest surrogate.

Cost: one pass per system reads its walks into a chord table by vertex
disk, so all intersection numbers together cost the total walk length
plus the chord pairs that share a disk.  Self-intersections are counted
only for a system that is not vertex-disjoint, at the disks where one
walk has two chords or more.  The cut test ranks only the strands of
shared corridors, one corridor at a time, keys the marks at the disks
with two chords or more as integers, and checks them in one sort and
one stack pass.  A system's Z/2 rank is read
off a pairing that is invertible mod 2 where there is one, and the face
vectors are eliminated, once, only for the systems left unsettled.
"""

from __future__ import annotations

import itertools

from .embedding import _permutation, stabilized_surface
from .graphs import (GemError, bicolored_cycles, residue_count,
                     residue_labels, spanning_forest)
from .homology import (GroupPresentation, HomologyGroup, _cokernel,
                       _free_reduce, _gf2_extend, boundary_h1,
                       euler_characteristic)
from .trisection import build_Q, cycle_sizes


class CountMismatch(GemError):
    """A curve system's size disagrees with the certified genus."""


class ExpansionDiverged(GemError):
    """Witness rewriting failed to terminate (broken ordering)."""


class UnsupportedFormat(GemError):
    pass


# -- curves and wall graphs ------------------------------------------------

class Curve:
    """Closed walk on the stabilized surface, as leaving half-edges.

    walk holds half-edge ids of the surface's scheme (see
    StabilizedSurface): scheme edge i < base is gem edge i, run from
    its low end by half-edge 2i and back by 2i + 1; handle j owns edges
    a = base + 3j (from the low end u of the stabilized edge to the
    handle vertex), b = a + 1 (on to the high end) and the meridian
    m = a + 2.  steps decodes the walk into label vocabulary, in which
    exports write it: ("e", gem edge id, +-1) traverses an apex-free
    edge (+1 is low to high); ("h", j, +-1) runs through handle j (+1
    from u, walk 2a, 2b; -1 is 2b + 1, 2a + 1); ("sc", j) is the
    meridian of handle j (walk 2m).  Handle indices are 0-based here,
    1-based in exports.
    """

    __slots__ = ("kind", "walk", "cycle_index", "base")

    def __init__(self, kind, walk, cycle_index, base):
        self.kind = kind
        self.walk = walk
        self.cycle_index = cycle_index
        self.base = base

    @property
    def steps(self):
        return _steps(self.walk, self.base)

    def __len__(self):
        return len(self.steps)

    def __repr__(self):
        return "Curve(%s, steps=%d, from=%r)" % (
            self.kind, len(self), self.cycle_index)


def _steps(walk, base):
    """The label steps of a walk, read a step at a time."""
    out = []
    it = iter(walk)
    for h in it:
        e = h >> 1
        out.append(("e", e, -1 if h & 1 else 1) if e < base
                   else _handle_step(h, e - base, it))
    return tuple(out)


def _handle_step(h, offset, rest):
    """The step that starts with half-edge h of handle edge base +
    offset, taking its second half-edge from rest for a traversal."""
    j, part = divmod(offset, 3)
    if part == 2 and not h & 1:
        return ("sc", j)
    if part == 0 and not h & 1 and next(rest, None) == h + 2:
        return ("h", j, 1)
    if part == 1 and h & 1 and next(rest, None) == h - 2:
        return ("h", j, -1)
    raise GemError("half-edge %d starts no step" % h)


def _wall_curves(g, kind, node_colors, cycle_colors):
    """The cycle_colors-cycles a spanning forest of their wall graph
    leaves out, as curves of this kind.

    The wall graph's nodes are the residues of the two families
    delta3 - {c}, c in node_colors, delta3 the non-apex colors; each
    bicolored cycle joins the residue of either family that contains
    it.  The forest is greedy in bicolored_cycles order.
    """
    delta3 = frozenset(g.colors) - {g.n}
    fam_a, fam_b = sorted((delta3 - {c} for c in node_colors), key=sorted)
    label_a, label_b = residue_labels(g, fam_a), residue_labels(g, fam_b)
    first_b = residue_count(g, fam_a)       # fam_b's nodes follow
    cycles = bicolored_cycles(g, *sorted(cycle_colors))
    forest = set(spanning_forest(
        first_b + residue_count(g, fam_b),
        ((label_a[c.start], first_b + label_b[c.start])
         for c in cycles)))
    base = g.edge_ids(g.n).start
    return [Curve(kind, cyc.walk, ci, base)
            for ci, cyc in enumerate(cycles) if ci not in forest]


def alpha_beta_curves(g, eps, certificate):
    """Wall cycles minus forests, plus one meridian per handle, per side.

    Alpha is the {eps0,eps2}-cycles left out by the forest of their
    wall graph over the {eps1,eps3} families, beta the {eps1,eps3}-cycles
    left out over the {eps0,eps2} families.
    """
    e0, e1, e2, e3 = _permutation(g, eps).seq[:4]
    genus = certificate.genus
    if genus.denominator != 1:
        raise CountMismatch("non-integral genus %s" % genus)
    genus = int(genus)
    alpha = _wall_curves(g, "alpha", (e1, e3), (e0, e2))
    beta = _wall_curves(g, "beta", (e0, e2), (e1, e3))
    base = g.edge_ids(g.n).start
    for j in range(certificate.k):
        meridian = (2 * (base + 3 * j + 2),)
        alpha.append(Curve("stab_circle", meridian, None, base))
        beta.append(Curve("stab_circle", meridian, None, base))
    if len(alpha) != genus or len(beta) != genus:
        raise CountMismatch(
            "expected %d curves per side, built %d alpha / %d beta"
            % (genus, len(alpha), len(beta)))
    return alpha, beta


# -- gamma: surviving Q1 edges, expanded through witnesses ----------------

def gamma_curves(Q, certificate):
    """Expand the non-witness, non-forest {apex,i}-cycles to surface walks.

    The forest over the kept cycles takes the longest first (see
    _gamma_forest), so the cycles it leaves out, gamma, have the least
    total expanded size a spanning forest can leave; only those are
    expanded, in Q1 edge order.  Every
    apex edge inside a surviving cycle is rewritten: stabilized edges
    become handle traversals, and a collapsed edge e is replaced by the
    rest of its witness cycle, collapse_schedule's shortest on offer.
    Each collapsed edge is rewritten once: run against the cycle, e is
    the rest walked forward; run along it, that walk's inverse, which
    is exact because every step's opposite direction expands to the
    inverse of its own.  The ordering property keeps a witness from
    leading back to its own edge; a square re-entered during its own
    rewrite raises ExpansionDiverged, and a square its witness cycle
    does not hold raises GemError.

    Everything is built in half-edges (see Curve): a cycle's walk
    already names the surface's half-edges off the apex, so only apex
    half-edges are rewritten; a walk's inverse is its reverse with
    each half-edge h read as h ^ 1, and the free reduction cancels h
    against h ^ 1.  A handle traversal or an edge step cancels only
    against its own inverse, so the walk reduces as its label steps
    would.
    """
    g = Q.graph
    base = g.edge_ids(g.n).start
    top = 2 * base                      # apex half-edges are top and up
    ordering = certificate.ordering
    rewritten = {}          # apex half-edge -> its walk on the surface
    for j, e in enumerate(ordering.stabilized):
        a = 2 * (base + 3 * j)          # handle j's edges, see Curve
        rewritten[2 * e], rewritten[2 * e + 1] = (a, a + 2), (a + 3, a + 1)
    witness_of = {e: idx for e, (_, idx) in
                  zip(ordering.collapsed, ordering.witnesses)}

    witness_set = set(witness_of.values())
    if len(witness_set) != len(ordering.collapsed):
        raise GemError("witness cycles are not distinct")

    forest = _gamma_forest(Q, [edge.index for edge in Q.q1_edges
                               if edge.index not in witness_set], ordering)
    in_progress = set()

    def expand(h):
        walk = rewritten.get(h)
        if walk is None:
            e = h >> 1
            if e in in_progress:
                raise ExpansionDiverged("rewriting loop through edge %d" % e)
            if e not in witness_of:
                raise GemError("apex edge %d is neither stabilized nor "
                               "collapsed" % e)
            cycle = Q.q1_edges[witness_of[e]].cycle.walk
            for x, run in enumerate(cycle):
                if run >> 1 == e:
                    break
            else:
                raise GemError("square %d does not lie on its witness "
                               "cycle %d" % (e, witness_of[e]))
            in_progress.add(e)
            forward = tuple(rewrite(cycle[x + 1:] + cycle[:x]))
            in_progress.discard(e)
            rewritten[run ^ 1] = forward
            rewritten[run] = tuple(map(_REVERSED, reversed(forward)))
            walk = rewritten[h]
        return walk

    def rewrite(walk):
        out = []
        for h in walk:
            if h >= top:
                out.extend(expand(h))
            else:
                out.append(h)
        return out

    try:
        return [Curve("gamma", _free_reduce(rewrite(edge.cycle.walk),
                                            _REVERSED), edge.index, base)
                for edge in Q.q1_edges
                if edge.index not in witness_set and edge.index not in forest]
    finally:
        # expand and rewrite name each other through their cells, a
        # reference cycle that would hold Q, its graph and the graph's
        # memo until the cyclic collector ran; emptying one cell frees
        # both as soon as this call returns or raises
        del expand


def _gamma_forest(Q, kept, ordering):
    """The kept Q1 edges that a spanning forest of the Q1 graph takes.

    Gamma is what the forest leaves out, and any spanning forest leaves
    a complete meridian system of the handlebody.  So the forest takes
    the longest cycles first by cycle_sizes, ties to the lowest index:
    greedy, that is a forest of greatest total size, and gamma keeps
    the shortest.  When the forest takes every kept
    edge, gamma is empty whatever the order, and no size is computed.
    """
    def grow(order):
        return {order[i] for i in spanning_forest(
            len(Q.q1_nodes), (Q.edge_nodes[idx] for idx in order))}

    forest = grow(kept)
    if len(forest) < len(kept):
        size_on = cycle_sizes(Q, ordering)
        forest = grow(sorted(kept, key=lambda idx: (-size_on[idx], idx)))
    return forest


# -- curves as half-edge walks on the surface scheme ----------------------

# h ^ 1: the half-edge h run the other way
_REVERSED = (1).__xor__


def _chord_table(scheme, walks):
    """(rows, disjoint): rows[v] lists the chords of one system's walks
    at vertex disk v as (curve, 3 * slot in, 3 * slot out) in its
    counterclockwise rotation, () where none passes; disjoint is whether
    every row holds one chord at most.  Raises GemError on a walk that
    names a half-edge outside the scheme or does not close up.
    """
    pos, vertex_of = scheme.pos_of, scheme.vertex_of
    rows = [()] * scheme.nv
    disjoint = True
    for ci, walk in enumerate(walks):
        if walk and not 0 <= min(walk) <= max(walk) < len(vertex_of):
            raise GemError("curve walk names half-edge %d, outside 0..%d" % (
                min(walk) if min(walk) < 0 else max(walk),
                len(vertex_of) - 1))
        t = walk[-1] ^ 1 if walk else 0
        for h in walk:
            v = vertex_of[h]
            if vertex_of[t] != v:
                raise GemError("curve walk does not close up")
            if rows[v]:
                rows[v].append((ci, 3 * pos[t], 3 * pos[h]))
                disjoint = False
            else:
                rows[v] = [(ci, 3 * pos[t], 3 * pos[h])]
            t = h ^ 1
    return rows, disjoint


def _pairing(rot, rows_a, rows_b, count_b):
    """Column j maps curve i of a to <a_i, b_j>, zeros left out.

    Only disks both systems meet are visited.  Chords of a sit at their
    slots, those of b enter just clockwise and leave just
    counterclockwise of theirs (pushed off left), so interleaving at a
    disk of n = 3 * degree positions is never ambiguous.
    """
    cols = [{} for _ in range(count_b)]
    for row_a, row_b, slots in zip(rows_a, rows_b, rot):
        if row_a and row_b:
            n = 3 * len(slots)
            for j, tb, hb in row_b:
                col = cols[j]
                for i, ta, ha in row_a:
                    span = (ha - ta) % n
                    x = (((tb - 1 - ta) % n < span)
                         - ((hb + 1 - ta) % n < span))
                    if x:
                        col[i] = col.get(i, 0) + x
    return [{i: x for i, x in sorted(col.items()) if x} for col in cols]


def _self_crossings(rot, rows, count):
    """<w, w> for each walk of one system; a chord never crosses its
    own push-off, so a disk with one chord, or with two of two walks,
    adds nothing."""
    out = [0] * count
    for row, slots in zip(rows, rot):
        if len(row) > 2 or len(row) == 2 and row[0][0] == row[1][0]:
            n = 3 * len(slots)
            for i, ta, ha in row:
                span = (ha - ta) % n
                for j, tb, hb in row:
                    if j == i:
                        out[i] += (((tb - 1 - ta) % n < span)
                                   - ((hb + 1 - ta) % n < span))
    return out


# -- corridor lanes and the cut test -----------------------------------------

def _lanes(walks, flat, leave, arrive, modulus):
    """Each traversal's lane in its corridor (surface edge), 0 lowest.

    Traversal t runs corridor flat[t] >> 1 of the walks' half-edges in
    turn, upward when flat[t] is even; leave[t] and arrive[t] are the
    slots of flat[t] and flat[t] ^ 1, and modulus is at least every
    degree.  Only corridors run twice or more are ranked, by the
    strands' upward turn strings: at each vertex the counterclockwise
    offset, mod modulus, of the next leaving half-edge from the arrival,
    read along the walk upward and backwards, each half-edge reversed,
    downward.  Strands that agree so far arrive together, so the lower
    turn leaves first.  Strings of walks of lengths L1 and L2 that agree
    on L1 + L2 turns agree forever (Fine and Wilf, Proc. AMS 1965), so
    slices 2 M long, M the corridor's longest walk, settle the order.
    Of two strands that never diverge (parallel copies) the lower t goes
    first exactly when it runs upward, so a copy keeps its side.
    """
    lane = [0] * len(flat)
    corridors = {}
    for t, h in enumerate(flat):
        corridors.setdefault(h >> 1, []).append(t)
    shared = [travs for travs in corridors.values() if len(travs) > 1]
    if not shared:
        return lane
    # turns read across walk ends first, then mended at each walk's ends
    fwd = bytearray([(b - a) % modulus
                     for a, b in zip(arrive, leave[1:] + leave[:1])])
    back = bytearray([(a - b) % modulus
                      for a, b in zip(arrive[-1:] + arrive[:-1], leave)])
    # text holds each walk's forward string, then its backward one, which
    # reads the walk from its end, both repeated to hold every slice;
    # t's upward string begins at up[t] or at down[t]
    need = 2 * max(map(len, walks))
    text = bytearray()
    up, down, size = [0] * len(flat), [0] * len(flat), [0] * len(flat)
    s = 0
    for walk in walks:
        L = len(walk)
        if L:
            e = s + L
            fwd[e - 1] = (leave[s] - arrive[e - 1]) % modulus
            back[s] = (arrive[e - 1] - leave[s]) % modulus
            reps = (need - 1) // L + 2
            up[s:e] = range(len(text), len(text) + L)
            text += fwd[s:e] * reps
            down[s:e] = range(len(text) + L - 1, len(text) - 1, -1)
            text += back[s:e][::-1] * reps
            size[s:e] = [L] * L
            s = e
    text = bytes(text)
    # one corridor at a time, so only its slices are alive at once
    for travs in shared:
        m = 2 * max(map(size.__getitem__, travs))
        keys = sorted([(text[down[t]:down[t] + m], 1, -t) if flat[t] & 1
                       else (text[up[t]:up[t] + m], 0, t) for t in travs])
        for k, (_, _, t) in enumerate(keys):
            lane[abs(t)] = k
    return lane


def _cut_test(scheme, walks, rows):
    """(True, None) when one system resolves into disjoint simple closed
    curves, else (False, (v, chord, chord)).

    Strands share a corridor side by side in their _lanes and cross
    only inside vertex disks, by the rotation order.  Only the busy
    disks, whose chord table rows hold two chords or more, are read.
    Chord t joins, at the disk t leaves, the arrival mark of the step
    before t in its walk to t's leaving mark.  A mark is one integer:
    by disk, slot, lane (counted up at the corridor's low end, down at
    its high end) and chord.  The chords at a disk are non-interleaving
    exactly when its marks, in rotation order, balance like parentheses,
    so one sort and one stack pass check every busy disk, by ascending
    vertex.  The witness is the first failing disk and two chords that
    interleave there (the closing one and the one left open inside it),
    each as (arrival, leaving) indices among the disk's sorted marks.
    """
    busy = [len(row) > 1 for row in rows]
    if True not in busy:
        return True, None
    pos, vo = scheme.pos_of, scheme.vertex_of
    modulus = max(map(len, scheme.rot))
    flat = list(itertools.chain.from_iterable(walks))
    n = len(flat)
    leave = [pos[h] for h in flat]
    arrive = [pos[h ^ 1] for h in flat]
    at = [vo[h] for h in flat]
    side = [-k if h & 1 else k for h, k in
            zip(flat, _lanes(walks, flat, leave, arrive, modulus))]
    before = list(range(-1, n - 1))     # the step before t in its walk
    end = 0
    for walk in walks:
        if walk:
            before[end] = end + len(walk) - 1
            end += len(walk)
    span = 2 * n                        # lanes lie in (-n, n)
    leaving = [((v * modulus + x) * span + k) * n + t
               for t, (v, x, k) in enumerate(zip(at, leave, side))]
    arriving = [((v * modulus + arrive[p]) * span - side[p]) * n + t
                for t, (v, p) in enumerate(zip(at, before))]
    on = [busy[v] for v in at]
    marks = sorted(itertools.chain(itertools.compress(arriving, on),
                                   itertools.compress(leaving, on)))
    is_open = bytearray(n)
    stack = []
    for mark in marks:
        t = mark % n
        if not is_open[t]:
            is_open[t] = 1
            stack.append(t)
        elif stack[-1] == t:
            stack.pop()
        else:
            v = at[t]
            index = {m: i for i, m in enumerate(
                m for m in marks if at[m % n] == v)}
            return False, (v, *((index[arriving[c]], index[leaving[c]])
                                for c in (t, stack[-1])))
    return True, None


# -- assembled diagrams and verification -----------------------------------

class VerificationRecord:
    __slots__ = ("checks", "ok", "notes")

    def __init__(self, checks, ok, notes):
        self.checks = checks
        self.ok = ok
        self.notes = tuple(notes)

    def as_dict(self):
        return {"ok": self.ok, "checks": self.checks,
                "notes": list(self.notes)}

    def __repr__(self):
        flags = {k: v.get("pass") for k, v in self.checks.items()}
        return "VerificationRecord(ok=%s, %s)" % (self.ok, flags)


class TrisectionDiagram:
    """Surface plus alpha/beta/gamma systems and the verification record."""

    __slots__ = ("surface", "alpha", "beta", "gamma", "genus", "mode",
                 "record")

    def __init__(self, surface, alpha, beta, gamma, genus, mode):
        self.surface = surface
        self.alpha = tuple(alpha)
        self.beta = tuple(beta)
        self.gamma = tuple(gamma)
        self.genus = genus
        self.mode = mode        # "trisection" or "g-trisection"
        self.record = None

    def systems(self):
        return (("alpha", self.alpha), ("beta", self.beta),
                ("gamma", self.gamma))

    def __repr__(self):
        return "TrisectionDiagram(genus=%d, mode=%s, curves=%d/%d/%d)" % (
            self.genus, self.mode, len(self.alpha), len(self.beta),
            len(self.gamma))


def assemble_diagram(g, eps, certificate):
    """Build all three systems and attach the verification record."""
    eps = _permutation(g, eps)
    if eps.seq != certificate.eps.seq:
        raise GemError("certificate was issued for %s, not %s"
                       % (list(certificate.eps.seq), list(eps.seq)))
    if certificate.genus.denominator != 1:
        raise CountMismatch("non-integral genus %s" % certificate.genus)
    surf = stabilized_surface(g, eps, certificate.ordering.stabilized)
    alpha, beta = alpha_beta_curves(g, eps, certificate)
    gamma = gamma_curves(build_Q(g, eps), certificate)
    mode = "trisection" if certificate.mode == "closed" else "g-trisection"
    d = TrisectionDiagram(surf, alpha, beta, gamma, int(certificate.genus),
                          mode)
    verify_diagram(d)
    return d


def _edge_vector(walk):
    """The walk's edges as a Z/2 bitmask, bit i for edge i."""
    vec = 0
    for h in walk:
        vec ^= 1 << (h >> 1)
    return vec


def verify_diagram(diagram):
    """Run the combinatorial checks and attach the record.

    counts, alpha/beta disjointness, Z/2 rank per system, the cut test
    per system (crossing-free strand resolution with connected
    complement), the (alpha, beta) pairing against the boundary
    homology, and the gamma cokernels.  With k1 and k2 the ranks of
    the (alpha, gamma) and (beta, gamma) cokernels and k3 the pairing's
    rank, a closed-mode diagram must have torsion-free k1 and k2 and
    2 + g - k1 - k2 - k3 equal to the gem's Euler characteristic, as
    a trisection of a closed 4-manifold has (Feller, Klug, Schirmer and
    Zemke, PNAS 2018); bounded mode records the ranks unchecked.

    A resolved system of k curves cuts the surface into 1 + k - rank
    pieces, rank being its Z/2 rank (each independent Z/2 relation
    among disjoint circles bounds a piece); only the resolution itself
    is checked combinatorially.

    One pass per system reads its walks into a chord table by vertex
    disk: a walk that names a half-edge outside the surface's scheme,
    or does not close up, raises GemError, and a disk that receives a
    second chord makes the system not vertex-disjoint (for alpha and
    beta, the disjointness check).  An alpha or beta system that passed
    it is crossing-free as it stands and is not resolved; gamma, and any
    system that is not vertex-disjoint, is, at its busy disks only,
    those holding two chords or more: one chord cannot cross, so the
    first failing disk, crossing_at, is the one every disk would give.

    Self-intersections, the pairings and the gamma columns loop over
    the table rows.  A vertex-disjoint system has none: each
    walk puts one chord in each disk it meets, and a chord never crosses
    its own push-off, since a reduced walk never leaves by the slot it
    arrived on; so self-intersections are counted for the other systems
    only.  On closed walks of the oriented surface every
    self-intersection is 0, so self_zero can fail only through a wrong
    chord table, and then the pairings cannot be trusted either.

    The Z/2 ranks come from the pairings where they can: the mod 2
    intersection number is a pairing on H1(S; Z/2), so a Z/2 relation
    among curves makes their rows of an intersection matrix sum to 0
    mod 2.  Two systems of g curves each whose cokernel has free rank 0
    and only odd torsion have an intersection matrix of odd
    determinant, so both have Z/2 rank g (_ranks_from_pairings).  The
    surface is closed and connected, its apex-free graph being a
    residue of the gem that build_Q's _require_apex proves connected,
    so dim H1(S; Z/2) = 2 - chi(S).  The face vectors are eliminated
    only for a system the pairings leave unsettled, once, and each such
    system's rank is what it adds to a copy of that basis.
    """
    surf = diagram.surface
    scheme = surf.scheme
    g_ = diagram.genus
    checks = {}
    notes = ["verification is combinatorial: curves are resolved into "
             "corridor lanes; cross-system disjointness is not claimed"]

    counts = {name: len(curves) for name, curves in diagram.systems()}
    checks["counts"] = dict(counts, genus=g_, **{
        "pass": all(c == g_ for c in counts.values())})

    walks, rows, disjoint = {}, {}, {}
    for name, curves in diagram.systems():
        walks[name] = ws = [c.walk for c in curves]
        rows[name], disjoint[name] = _chord_table(scheme, ws)
    disj = {name: disjoint[name] for name in ("alpha", "beta")}
    checks["disjoint"] = dict(disj, **{"pass": all(disj.values())})

    # the pairing and the gamma cokernels, by the pair of systems
    cokernels = {}
    for a, b in (("alpha", "beta"), ("alpha", "gamma"), ("beta", "gamma")):
        cols = _pairing(scheme.rot, rows[a], rows[b], len(walks[b]))
        cokernels[a, b] = _cokernel(cols, g_)

    z2 = {"dim_h1": 2 - surf.chi, "expected_dim": 2 * g_, "ranks": {},
          "self_zero": True}
    forced = _ranks_from_pairings(counts, g_, cokernels)
    face_basis = None
    for name, ws in walks.items():
        rank = forced.get(name)
        if rank is None:
            if face_basis is None:
                face_basis = {}
                _gf2_extend(face_basis, map(_edge_vector, surf.faces))
            rank = _gf2_extend(dict(face_basis), map(_edge_vector, ws))
        z2["ranks"][name] = rank
        if not disjoint[name] and any(
                _self_crossings(scheme.rot, rows[name], len(ws))):
            z2["self_zero"] = False
    z2["pass"] = (z2["dim_h1"] == 2 * g_ and z2["self_zero"]
                  and all(r == g_ for r in z2["ranks"].values()))
    checks["z2"] = z2

    cut = {"systems": {}}
    for name, ws in walks.items():
        entry = {"resolved": False, "connected": False,
                 "chi_capped": None}
        if any(len(w) == 0 for w in ws):
            entry["empty_curve"] = True
            cut["systems"][name] = entry
            continue
        if disj.get(name):
            # vertex-disjoint simple walks: one chord per vertex disk
            ok, witness = True, None
        else:
            ok, witness = _cut_test(scheme, ws, rows[name])
        entry["resolved"] = ok
        if not ok:
            entry["crossing_at"] = witness[0]
        else:
            pieces = 1 + len(ws) - z2["ranks"][name]
            entry["connected"] = pieces == 1
            entry["pieces"] = pieces
            # cutting along disjoint circles keeps chi; capping the
            # 2 * len(ws) boundary circles gives chi of the cut-open
            # surface capped off
            entry["chi_capped"] = surf.chi + 2 * len(ws)
        cut["systems"][name] = entry
    cut["pass"] = all(e["resolved"] and e["connected"]
                      and e["chi_capped"] == 2
                      for e in cut["systems"].values())
    checks["cut"] = cut

    pairing = cokernels["alpha", "beta"]
    h1b = boundary_h1(surf.graph)
    expected = HomologyGroup(surf.k + h1b.rank, h1b.torsion)
    checks["pairing_ab"] = {
        "rank": pairing.rank, "torsion": list(pairing.torsion),
        "expected_rank": expected.rank,
        "expected_torsion": list(expected.torsion),
        "pass": pairing == expected,
    }

    gcok = {}
    for name, kname in (("alpha", "k1"), ("beta", "k2")):
        cok = cokernels[name, "gamma"]
        gcok[kname] = cok.rank
        gcok[kname + "_torsion"] = list(cok.torsion)
    gcok["pass"] = True
    if diagram.mode == "trisection":
        gcok["chi"] = euler_characteristic(surf.graph)
        gcok["chi_diagram"] = 2 + g_ - gcok["k1"] - gcok["k2"] - pairing.rank
        gcok["pass"] = (not gcok["k1_torsion"] and not gcok["k2_torsion"]
                        and gcok["chi"] == gcok["chi_diagram"])
    checks["gamma_cokernels"] = gcok

    ok = all(check["pass"] for check in checks.values())
    record = VerificationRecord(checks, ok, notes)
    diagram.record = record
    return record


def _ranks_from_pairings(counts, genus, cokernels):
    """{system: genus} for the systems a pairing proves of Z/2 rank genus.

    cokernels maps a pair of systems to the cokernel of their
    intersection matrix.  When both hold genus curves and the cokernel
    has free rank 0 and only odd torsion, the square matrix has odd
    determinant, so it is invertible mod 2 and neither system has a
    Z/2 relation (see verify_diagram).
    """
    out = {}
    for (a, b), cok in cokernels.items():
        if (counts[a] == counts[b] == genus and cok.rank == 0
                and all(t % 2 for t in cok.torsion)):
            out[a] = out[b] = genus
    return out


def prove_pi1_trivial(diagram):
    """Store pi1 = 1 on the diagram's gem when the diagram proves it.

    In a (g; k1, k2, k3) trisection of a closed X, the sector X1 is
    the boundary sum of k1 copies of S1 x B3 and X is X1 with handles
    of index 2 and more attached, so pi1(X) is a quotient of the free
    group of rank k1, and likewise of rank k2 and k3 (Gay and Kirby,
    "Trisecting 4-manifolds", Geom. Topol. 2016).  A verified
    closed-mode diagram whose k1, k2 or pairing rank k3 is 0 therefore
    proves pi1 = 1.  That rests on the paper's second result, that the
    diagram assembled from a certified member gem is a trisection
    diagram of its 4-manifold, so callers pass only diagrams of such
    gems.  The trivial presentation goes under the gem's "pi1" memo,
    where pi1_presentation, h1 and the ledger read it, unless a
    presentation is already there.  Returns whether the diagram proves
    pi1 = 1.
    """
    checks = diagram.record.checks
    if not (diagram.record.ok and diagram.mode == "trisection"
            and 0 in (checks["gamma_cokernels"]["k1"],
                      checks["gamma_cokernels"]["k2"],
                      checks["pairing_ab"]["rank"])):
        return False
    diagram.surface.graph._memo.setdefault("pi1", GroupPresentation(0, ()))
    return True


# -- export ----------------------------------------------------------------

def _step_text(s):
    """One step as json text, keys sorted; handles are shown 1-based."""
    if s[0] == "e":
        return '{"d":%d,"id":%d,"t":"e"}' % (s[2], s[1])
    if s[0] == "h":
        return '{"d":%d,"j":%d,"t":"h"}' % (s[2], s[1] + 1)
    return '{"j":%d,"t":"sc"}' % (s[1] + 1)


def _walk_json(walk, base):
    """The walk's steps as json text.  Edge steps, the only steps most
    walks have, are written straight from their half-edges: decoding
    every walk into step tuples first made the export slower than
    writing stored steps had been."""
    out = []
    it = iter(walk)
    for h in it:
        e = h >> 1
        out.append('{"d":%d,"id":%d,"t":"e"}' % (-1 if h & 1 else 1, e)
                   if e < base else _step_text(_handle_step(h, e - base, it)))
    return ",".join(out)


def _curves_json(curves):
    return "[%s]" % ",".join("[%s]" % _walk_json(c.walk, c.base)
                             for c in curves)


def export_diagram(diagram, fmt="json"):
    """Serialize: canonical json, a dot overlay, or a best-effort svg."""
    if fmt == "json":
        # json.dumps(..., sort_keys=True, separators=(",", ":")) of the
        # diagram's fields, written directly
        return ('{"alpha":%s,"beta":%s,"gamma":%s,"genus":%d,"k":%d,'
                '"permutation":[%s]}\n' % (
                    _curves_json(diagram.alpha), _curves_json(diagram.beta),
                    _curves_json(diagram.gamma), diagram.genus,
                    diagram.surface.k,
                    ",".join("%d" % c for c in diagram.surface.eps.seq))
                ).encode("ascii")
    if fmt == "dot":
        return _export_dot(diagram)
    if fmt == "svg":
        return _export_svg(diagram)
    raise UnsupportedFormat("unknown diagram format %r" % (fmt,))


_DOT_COLORS = {"alpha": "red", "beta": "blue", "gamma": "green"}


def _export_dot(diagram):
    surf = diagram.surface
    g = surf.graph
    lines = ["graph diagram {", "  // apex-free gem with curve overlays"]
    for v in range(g.nv):
        lines.append("  v%d;" % v)
    for j in range(surf.k):
        lines.append('  x%d [shape=point, label="handle %d"];' % (j, j + 1))
    base = g.edge_ids(g.n).start
    used = {}
    for name, curves in diagram.systems():
        for ci, c in enumerate(curves):
            for h in c.walk:
                if h >> 1 < base:
                    used.setdefault(h >> 1, []).append("%s%d" % (name, ci))
    for eid, (u, v, c) in enumerate(g.edges):
        if c == g.n:
            continue
        mark = used.get(eid)
        attrs = ['label="c%d"' % c]
        if mark:
            attrs.append('penwidth=2, comment="%s"' % " ".join(mark))
        lines.append("  v%d -- v%d [%s];" % (u, v, ", ".join(attrs)))
    for j, e in enumerate(surf.stabilized):
        u, v = g.edges[e][:2]
        lines.append('  v%d -- x%d [style=dashed];' % (u, j))
        lines.append('  x%d -- v%d [style=dashed];' % (j, v))
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _export_svg(diagram):
    import math
    surf = diagram.surface
    g = surf.graph
    n = surf.scheme.nv
    r, cx, cy = 180.0, 200.0, 200.0
    pts = []
    for i in range(n):
        a = 2 * math.pi * i / max(n, 1)
        pts.append((cx + r * math.cos(a), cy + r * math.sin(a)))
    bits = ['<?xml version="1.0" encoding="UTF-8"?>',
            '<svg xmlns="http://www.w3.org/2000/svg" '
            'width="400" height="400" viewBox="0 0 400 400">',
            '<title>genus %d %s diagram</title>' % (diagram.genus,
                                                    diagram.mode)]
    for idx, (u, v) in enumerate(surf.scheme.edge_ends):
        (x1, y1), (x2, y2) = pts[u], pts[v]
        bits.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" '
                    'stroke="#999" stroke-width="1"/>' % (x1, y1, x2, y2))
    for name, curves in diagram.systems():
        color = _DOT_COLORS[name]
        for c in curves:
            try:
                _chord_table(surf.scheme, [c.walk])
            except GemError:
                continue
            coords = []
            for h in c.walk:
                u = surf.scheme.vertex_of[h]
                v = surf.scheme.vertex_of[h ^ 1]
                coords.append(((pts[u][0] + pts[v][0]) / 2,
                               (pts[u][1] + pts[v][1]) / 2))
            if not coords:
                continue
            path = " ".join("%.1f,%.1f" % p for p in coords)
            bits.append('<polyline points="%s %s" fill="none" '
                        'stroke="%s" stroke-width="1.5" opacity="0.7"/>'
                        % (path, "%.1f,%.1f" % coords[0], color))
    for i, (x, y) in enumerate(pts):
        bits.append('<circle cx="%.1f" cy="%.1f" r="3" fill="#222"/>'
                    % (x, y))
    bits.append("</svg>")
    return ("\n".join(bits) + "\n").encode("ascii")
