"""Curve systems on the stabilized central surface, with verification.

The three systems live combinatorially on the surface built by
`stabilized_surface`: alpha and beta are bicolored cycles of the two
color pairs that avoid the apex (minus a spanning forest's worth per
wall graph, plus the handle meridians), gamma is the surviving part of
the square-complex 1-skeleton, its shortest cycles, rewritten through
witness cycles until no apex edge remains.

Curves are half-edge walks on that surface's scheme from the start
(see Curve): alpha and beta read theirs off their cycles' steps, gamma
expands its witnesses in half-edges and is freely reduced by cancelling
h against h ^ 1, the verifier reads the walks as they are, checking
only that each names half-edges of the surface and closes up, and the
exports decode them into label steps.

Verification is homological plus cut-combinatorial, on the oriented
rotation scheme of the surface: every rotation reads counterclockwise,
so a half-edge's slot is `scheme.pos_of`.  Curves are resolved into
disjoint strands inside edge corridors, laid in lanes by one rank of
all strands (their counterclockwise turns, ranked from blocks of up to
64 turns, then by prefix doubling), so parallel copies of a curve
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
only for a system that is not vertex-disjoint, and a resolution keeps
only the disks with two chords or more.  A system's Z/2 rank is read
off a pairing that is invertible mod 2 where there is one, and the face
vectors are eliminated, once, only for the systems left unsettled.
"""

from __future__ import annotations

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
        ((label_a[c.vertices[0]], first_b + label_b[c.vertices[0]])
         for c in cycles)))
    base = g.edge_ids(g.n).start
    return [Curve(kind, tuple(2 * eid + (d < 0) for eid, d in cyc.steps),
                  ci, base)
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
    the rest walked forward; run along it, e is that walk's inverse,
    which is exact because every step's opposite direction expands to
    the inverse of its own.  The ordering property keeps a witness from
    leading back to its own edge; a square re-entered during its own
    rewrite raises ExpansionDiverged.

    Everything is built in half-edges (see Curve): an apex-free step
    (e, d) is 2e + (d < 0), a walk's inverse is its reverse with each
    half-edge h read as h ^ 1, and the free reduction cancels h against
    h ^ 1.  A handle traversal or an edge step cancels only against its
    own inverse, so the walk reduces as its label steps would.
    """
    g = Q.graph
    base = g.edge_ids(g.n).start        # apex edges are base and up
    ordering = certificate.ordering
    handle_of = {e: j for j, e in enumerate(ordering.stabilized)}
    witness_of = {e: idx for e, (_, idx) in
                  zip(ordering.collapsed, ordering.witnesses)}

    witness_set = set(witness_of.values())
    if len(witness_set) != len(ordering.collapsed):
        raise GemError("witness cycles are not distinct")

    forest = _gamma_forest(Q, [edge.index for edge in Q.q1_edges
                               if edge.index not in witness_set], ordering)

    rewritten = {}          # collapsed edge -> {direction: walk}
    in_progress = set()

    def expand(e, d):
        if e in handle_of:
            a = 2 * (base + 3 * handle_of[e])
            return (a, a + 2) if d > 0 else (a + 3, a + 1)
        if e not in rewritten:
            if e in in_progress:
                raise ExpansionDiverged("rewriting loop through edge %d" % e)
            if e not in witness_of:
                raise GemError("apex edge %d is neither stabilized nor "
                               "collapsed" % e)
            in_progress.add(e)
            steps = Q.q1_edges[witness_of[e]].cycle.steps
            x = next(i for i, (eid, _) in enumerate(steps) if eid == e)
            forward = tuple(rewrite(steps[x + 1:] + steps[:x]))
            in_progress.discard(e)
            backward = tuple(map(_REVERSED, reversed(forward)))
            rewritten[e] = {-steps[x][1]: forward, steps[x][1]: backward}
        return rewritten[e][d]

    def rewrite(steps):
        out = []
        for eid, d in steps:
            if eid >= base:
                out.extend(expand(eid, d))
            else:
                out.append(2 * eid + (d < 0))
        return out

    return [Curve("gamma", _free_reduce(rewrite(edge.cycle.steps),
                                        _REVERSED), edge.index, base)
            for edge in Q.q1_edges
            if edge.index not in witness_set and edge.index not in forest]


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
    """<w, w> for each walk of one system; a disk with one chord adds
    nothing, as a chord never crosses its own push-off."""
    out = [0] * count
    for row, slots in zip(rows, rot):
        if len(row) > 1:
            n = 3 * len(slots)
            for i, ta, ha in row:
                span = (ha - ta) % n
                for j, tb, hb in row:
                    if j == i:
                        out[i] += (((tb - 1 - ta) % n < span)
                                   - ((hb + 1 - ta) % n < span))
    return out


# -- strand order and crossing-free resolution -----------------------------

def _strand_order(scheme, walks):
    """Each traversal's place in one order of all corridor strands.

    Traversals t number the walks' steps in turn.  State 2t reads step
    t's walk forwards, 2t + 1 backwards with each half-edge reversed;
    a state's symbol is the counterclockwise offset of its next leaving
    half-edge from its arrival, below the vertex degree (at most 5), so
    one byte.  Strands order by the symbols of the state that runs them
    upward.  The states rank first by their next K = min(2 maxL, 64)
    symbols, maxL the longest walk: each walk's forward and backward
    strings are repeated and sliced into bytes keys, sorted once.  Then
    the ranks double (Manber and Myers), the jumps by index arithmetic
    within a walk, until a round splits no class (states agreeing on m
    symbols then agree on 2m) or m reaches 2 maxL.  Walks of lengths L1
    and L2 that agree on L1 + L2 symbols agree forever (Fine and Wilf,
    Proc. AMS 1965), so 2 maxL symbols settle every class, and when
    2 maxL fits in a block the sort alone is final.  Of two strands that
    never diverge (parallel copies) the lower t goes first exactly when
    it runs upward, so a copy keeps its side whichever way it is run.
    """
    pos, rot, vertex_of = scheme.pos_of, scheme.rot, scheme.vertex_of
    settled = 2 * max(map(len, walks), default=0)
    K = min(settled, 64)
    fwd_keys, back_keys, spans, down = [], [], [], []
    for walk in walks:
        L = len(walk)
        if not L:
            continue
        spans.append((len(down), L))
        fwd, back = bytearray(L), bytearray(L)
        for i, h in enumerate(walk):
            nxt, prv = walk[(i + 1) % L], walk[i - 1] ^ 1
            fwd[i] = (pos[nxt] - pos[h ^ 1]) % len(rot[vertex_of[nxt]])
            # backward state i reads back[L - 1 - i], then onwards
            back[L - 1 - i] = (pos[prv] - pos[h]) % len(rot[vertex_of[prv]])
            down.append(h & 1)
        reps = (L - 1 + K) // L + 1
        fwd, back = bytes(fwd) * reps, bytes(back) * reps
        fwd_keys += [fwd[i:i + K] for i in range(L)]
        back_keys += [back[i:i + K] for i in range(L - 1, -1, -1)]

    def dense(keys):
        ids = {k: r for r, k in enumerate(sorted(set(keys)))}
        return [ids[k] for k in keys], len(ids)

    n = 2 * len(down)
    keys = [None] * n
    keys[::2], keys[1::2] = fwd_keys, back_keys
    rank, classes = dense(keys)
    m = K
    while m < settled:
        # m steps on: forward states ahead in their walk, backward behind
        jump = [None] * n
        ahead, behind = [], []
        for base, L in spans:
            s = m % L
            states = range(2 * base, 2 * (base + L), 2)
            ahead += states[s:]
            ahead += states[:s]
            behind += states[L - s:]
            behind += states[:L - s]
        jump[::2] = ahead
        jump[1::2] = [t + 1 for t in behind]
        rank2, classes2 = dense([r * n + rank[j] for r, j in zip(rank, jump)])
        if classes2 == classes:
            break
        rank, classes = rank2, classes2
        m *= 2
    order = sorted(range(len(down)), key=lambda t: (
        rank[2 * t + down[t]], down[t], -t if down[t] else t))
    place = [0] * len(order)
    for p, t in enumerate(order):
        place[t] = p
    return place


def _resolve(scheme, walks, rows):
    """(marks, chords) at the busy disks, whose chord table rows hold
    two chords or more: marks[v] lists (slot, micro, port) in
    counterclockwise order, None off the busy disks, and chords maps
    each busy disk, ascending, to pairs of mark indices.

    Marks sort by slot, then by place at a corridor's low end (port 2t
    for traversal t) and against it at the high end (port 2t + 1).
    """
    pos, vo = scheme.pos_of, scheme.vertex_of
    place = _strand_order(scheme, walks)
    marks = [[] if len(row) > 1 else None for row in rows]
    flat = [h for walk in walks for h in walk]
    for t, h in enumerate(flat):
        low = h & ~1
        at = marks[vo[low]]
        if at is not None:
            at.append((pos[low], place[t], 2 * t))
        at = marks[vo[low + 1]]
        if at is not None:
            at.append((pos[low + 1], -place[t], 2 * t + 1))
    index = [0] * (2 * len(flat))
    chords = {}
    for v, at in enumerate(marks):
        if at is not None:
            at.sort()
            for i, (_, _, port) in enumerate(at):
                index[port] = i
            chords[v] = []
    t = 0
    for walk in walks:
        for i, h in enumerate(walk):
            at = chords.get(vo[h])
            if at is not None:
                # the previous step arrives at the end it does not leave
                prev = t - i + (i - 1) % len(walk)
                arr = 2 * prev + 1 - (walk[i - 1] & 1)
                at.append((index[arr], index[2 * t + (h & 1)]))
            t += 1
    return marks, chords


def _crossing_free(marks, chords_at):
    """Check all same-system chords pairwise non-interleaving.

    Each mark ends exactly one chord, so the chords at a vertex are
    pairwise non-interleaving exactly when the marks, read in rotation
    order, balance like parentheses: a chord's second end must meet it
    on top of the stack of open chords.  One pass per vertex, visited in
    the order of chords_at; the witness is the first failing vertex
    and a pair of its chords that interleave (the closing chord and the
    one left open inside it).
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
            ok, witness = _crossing_free(*_resolve(scheme, ws, rows[name]))
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
    for j, h in enumerate(surf.handles):
        lines.append('  v%d -- x%d [style=dashed];' % (h.u, j))
        lines.append('  x%d -- v%d [style=dashed];' % (j, h.v))
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
