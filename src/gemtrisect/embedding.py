"""Regular surface embeddings of edge-colored graphs.

For every cyclic permutation eps of the color set there is a cellular
embedding of the graph into a closed surface whose faces are bounded by
the bicolored cycles of consecutive colors.  Combinatorially the
embedding is the rotation scheme that orders the edges at every vertex
by eps and makes every edge sign-reversing; the surface is orientable
exactly when the graph is bipartite.

Two independent genus routes are kept apart on purpose: `rho` counts
residues and applies the Euler identity

    2 - 2*rho = sum_j g(eps_j, eps_j+1) + (1 - n) * p,

while `regular_embedding` traces faces from the rotation scheme and
reads the genus off the Euler characteristic.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .graphs import (GemError, ResidueCensus, bicolored_cycles, is_bipartite,
                     residue_cycle_counts, residues)


# -- cyclic permutations ------------------------------------------------

class CyclicPermutation:
    """Cyclic arrangement of the colors 0..n, up to rotation and reversal.

    The canonical representative puts color n last and orients the
    cycle so the first entry is smaller than the one before n.
    """

    __slots__ = ("seq",)

    def __init__(self, seq):
        seq = tuple(seq)
        n = len(seq) - 1
        if sorted(seq) != list(range(n + 1)):
            raise GemError("not a permutation of 0..%d: %r" % (n, seq))
        self.seq = _canonical(seq)

    def __iter__(self):
        return iter(self.seq)

    def __getitem__(self, i):
        return self.seq[i]

    def __len__(self):
        return len(self.seq)

    def __eq__(self, other):
        if isinstance(other, CyclicPermutation):
            return self.seq == other.seq
        return NotImplemented

    def __hash__(self):
        return hash(self.seq)

    def __repr__(self):
        return "CyclicPermutation(%s)" % (self.seq,)

    def pairs(self):
        """Consecutive color pairs around the cycle, n+1 of them."""
        s = self.seq
        return [(s[i], s[(i + 1) % len(s)]) for i in range(len(s))]

    def drop(self, color):
        """Induced cyclic permutation of the remaining colors."""
        return tuple(c for c in self.seq if c != color)


def _canonical(seq):
    n = len(seq) - 1
    i = seq.index(n)
    rot = seq[i + 1:] + seq[:i + 1]          # ends with n
    rev = tuple(reversed(rot[:-1])) + (n,)   # reversed cycle, n last
    return rot if rot[0] < rev[0] else rev


def cyclic_permutations(n):
    """The n!/2 canonical cyclic permutations of the colors 0..n.

    Rotations and the reversal of a cycle are identified, so the
    (n+1)! orderings fall into classes of 2(n+1).
    """
    import itertools
    seen = set()
    out = []
    for perm in itertools.permutations(range(n)):
        cp = CyclicPermutation(perm + (n,))
        if cp.seq not in seen:
            seen.add(cp.seq)
            out.append(cp)
    out.sort(key=lambda cp: cp.seq)
    return out


# -- census-formula genus ------------------------------------------------

def _chi_formula(pair_count, cyc_seq, order):
    """Euler characteristic of the regular embedding via residue counts.

    pair_count maps frozenset({c, d}) to the number of {c,d}-cycles,
    cyc_seq is a tuple of colors and order the number of vertices.
    The consecutive pairs of cyc_seq come from _pair_keys, so a call is
    len(cyc_seq) lookups: the dipole chain asks after every cancellation.
    """
    total = 0
    for key in _pair_keys(cyc_seq):
        total += pair_count[key]
    return total + (2 - len(cyc_seq)) * (order // 2)


@functools.lru_cache(maxsize=256)
def _pair_keys(cyc_seq):
    """frozenset({c, d}) for each consecutive pair around cyc_seq.

    A pipeline run asks for a few dozen sequences: the 12 cyclic orders
    of five colors, the 4-color orders they induce, and the three of a
    4-colored sub-gem.
    """
    n = len(cyc_seq)
    return tuple(frozenset((cyc_seq[i], cyc_seq[(i + 1) % n]))
                 for i in range(n))


def _permutation(g, eps):
    """eps as a CyclicPermutation of g's colors 0..n, so n sits last."""
    eps = eps if isinstance(eps, CyclicPermutation) else CyclicPermutation(eps)
    if len(eps) != g.n + 1:
        raise GemError("permutation length %d does not match dimension %d"
                       % (len(eps), g.n))
    return eps


def rho(g, eps):
    """Regular genus of the embedding F_eps, from the census identity.

    Returns a Fraction: the orientable genus for bipartite graphs,
    half the non-orientable genus otherwise (possibly half-integral).
    """
    eps = _permutation(g, eps)
    chi = _chi_formula(ResidueCensus(g), eps.seq, g.nv)
    return Fraction(2 - chi, 2)


def subgraph_rho(g, eps, drop_color):
    """Genus of the embedding of the subgraph missing one color.

    The cyclic order is the one induced by eps.  Returns a single
    Fraction when the subgraph is connected, otherwise the list of
    per-component genera ordered by minimum vertex.
    """
    eps = _permutation(g, eps)
    sub_seq = eps.drop(drop_color)
    counts = residue_cycle_counts(g, sub_seq)
    vals = [Fraction(2 - _chi_formula(cnt, sub_seq, len(r.vertices)), 2)
            for cnt, r in zip(counts, residues(g, sub_seq))]
    return vals[0] if len(vals) == 1 else vals


# -- rotation schemes and face tracing -----------------------------------

class RotationScheme:
    """Half-edge structure: per-vertex rotations plus edge signs.

    Edge i has half-edges 2i (low end) and 2i+1 (high end); for loop
    edges both ends sit at the same vertex but remain distinct slots.
    `neg[i]` marks sign-reversing edges.
    """

    def __init__(self, nv, edge_ends, rotations, neg):
        self.nv = nv
        self.edge_ends = edge_ends        # list of (u, v)
        self.neg = neg                    # list of 0/1
        self.rot = rotations              # per vertex: list of half-edge ids
        ne = len(edge_ends)
        self.vertex_of = [0] * (2 * ne)
        for e, (u, v) in enumerate(edge_ends):
            self.vertex_of[2 * e] = u
            self.vertex_of[2 * e + 1] = v
        self.pos_of = [0] * (2 * ne)
        for v, slots in enumerate(rotations):
            for i, h in enumerate(slots):
                self.pos_of[h] = i

    def step(self, h, s):
        """Next (half-edge, side) of the face walk leaving along h."""
        t = h ^ 1
        w = self.vertex_of[t]
        s2 = s ^ self.neg[h >> 1]
        slots = self.rot[w]
        i = self.pos_of[t]
        j = (i + 1) % len(slots) if s2 == 0 else (i - 1) % len(slots)
        return slots[j], s2

    def trace_faces(self):
        """Faces as lists of leaving half-edges (one orbit per face).

        States (half-edge, side) are walked with `step`; the mirror
        involution pairs each orbit with its reversed traversal and
        each pair is reported once.
        """
        ne = len(self.edge_ends)
        seen = [False] * (4 * ne)      # state id = 2*h + s
        faces = []
        for h0 in range(2 * ne):
            for s0 in (0, 1):
                if seen[2 * h0 + s0]:
                    continue
                orbit = []
                h, s = h0, s0
                while not seen[2 * h + s]:
                    seen[2 * h + s] = True
                    orbit.append(h)
                    # mark the mirrored state so the reversed orbit
                    # is not traced as a second face
                    mh = h ^ 1
                    ms = s ^ 1 ^ self.neg[h >> 1]
                    seen[2 * mh + ms] = True
                    h, s = self.step(h, s)
                if (h, s) != (h0, s0):
                    raise GemError("face walk failed to close")
                faces.append(orbit)
        return faces

    def euler_characteristic(self):
        return self.nv - len(self.edge_ends) + len(self.trace_faces())


class SurfaceEmbedding:
    """Traced regular embedding of a graph for one cyclic permutation.

    faces are the bicolored cycles of consecutive colors in eps, each
    given as the list of (parent edge id, direction) darts of its
    boundary walk.
    """

    def __init__(self, graph, eps, scheme, faces):
        self.graph = graph
        self.eps = eps
        self.scheme = scheme
        self.faces = faces
        self.chi = graph.nv - len(scheme.edge_ends) + len(faces)
        self.orientable = is_bipartite(graph)[0]

    @property
    def genus(self):
        """Orientable genus, or half the non-orientable genus."""
        return Fraction(2 - self.chi, 2)

    def __repr__(self):
        return "SurfaceEmbedding(eps=%s, chi=%d, orientable=%s)" % (
            self.eps.seq, self.chi, self.orientable)


def _gem_scheme(g, color_seq):
    """Rotation scheme of the regular embedding for a color sequence.

    Every vertex lists its edges in color_seq order and every edge is
    sign-reversing; this single convention covers the bipartite case
    (equivalent to reversing rotations on one class) and the
    non-bipartite one.
    """
    rotations = [[] for _ in range(g.nv)]
    ends = [(u, v) for (u, v, c) in g.edges]
    for v in range(g.nv):
        for c in color_seq:
            e = g.incident(v, c)
            u, w, _ = g.edges[e]
            h = 2 * e if u == v else 2 * e + 1
            rotations[v].append(h)
    neg = [1] * len(ends)
    return RotationScheme(g.nv, ends, rotations, neg)


def regular_embedding(g, eps):
    """Trace the regular embedding F_eps(g) from its rotation scheme."""
    eps = _permutation(g, eps)
    scheme = _gem_scheme(g, eps.seq)
    raw = scheme.trace_faces()
    faces = []
    for orbit in raw:
        darts = []
        for h in orbit:
            e = h >> 1
            darts.append((e, 1 if h % 2 == 0 else -1))
        faces.append(tuple(darts))
    return SurfaceEmbedding(g, eps, scheme, faces)


# -- stabilized central surfaces ------------------------------------------

class Handle:
    """Bookkeeping for one stabilized edge turned into a surface handle."""

    __slots__ = ("gem_edge", "u", "v", "x", "a", "b", "m")

    def __init__(self, gem_edge, u, v, x, a, b, m):
        self.gem_edge = gem_edge    # the stabilized apex edge id
        self.u = u                  # low endpoint in the gem
        self.v = v
        self.x = x                  # scheme vertex on the handle
        self.a = a                  # scheme edge u -> x
        self.b = b                  # scheme edge x -> v
        self.m = m                  # meridian loop at x


class StabilizedSurface:
    """Oriented central surface: apex-free embedding plus one handle per
    stabilized edge.

    The apex is color n, the last of eps.  Each stabilized apex edge
    (u, v) is replaced by a two-edge path u - x - v whose ends occupy
    the apex corner of the rotations at u and v, with a meridian loop
    at x separating the two path edges.
    The meridian is the boundary of the cocore disk, so any walk
    through the handle crosses it exactly once.
    Every rotation of the scheme reads counterclockwise and no edge
    reverses orientation, so `scheme.pos_of` is each half-edge's
    counterclockwise slot.
    """

    __slots__ = ("graph", "eps", "stabilized", "scheme", "faces",
                 "handles", "edge_of_gem", "chi", "genus")

    def __init__(self, graph, eps, stabilized, scheme, faces, handles,
                 edge_of_gem):
        self.graph = graph
        self.eps = eps
        self.stabilized = stabilized
        self.scheme = scheme
        self.faces = faces
        self.handles = handles
        self.edge_of_gem = edge_of_gem
        self.chi = scheme.nv - len(scheme.edge_ends) + len(faces)
        self.genus = Fraction(2 - self.chi, 2)

    @property
    def k(self):
        return len(self.handles)

    def __repr__(self):
        return "StabilizedSurface(genus=%s, k=%d)" % (self.genus, self.k)


def stabilized_surface(g, eps, stabilized):
    """Build the oriented central surface for a stabilization set of
    apex edges.

    Rotations list the edges in eps order without the apex, handle ends
    in the apex corner.  Those of bipartition class 1 are reversed, a
    handle vertex taking the class opposite its low end u, so every
    rotation reads counterclockwise and every edge preserves
    orientation.  A non-bipartite gem has no orientable central surface
    and is refused.
    """
    eps = _permutation(g, eps)
    bip, cls = is_bipartite(g)
    if not bip:
        raise GemError("trisection diagrams need a bipartite gem")
    apex = g.n
    base_seq = eps.drop(apex)
    stabilized = tuple(sorted(set(stabilized)))
    for e in stabilized:
        if g.edges[e][2] != apex:
            raise GemError("edge %d does not have the apex color" % e)

    ends = []
    edge_of_gem = {}
    for eid, (u, v, c) in enumerate(g.edges):
        if c == apex:
            continue
        edge_of_gem[eid] = len(ends)
        ends.append((u, v))

    rotations = [[] for _ in range(g.nv)]
    for w in range(g.nv):
        for c in base_seq:
            e = g.incident(w, c)
            u, v, _ = g.edges[e]
            idx = edge_of_gem[e]
            rotations[w].append(2 * idx if u == w else 2 * idx + 1)

    classes = list(cls)
    handles = []
    for j, eid in enumerate(stabilized):
        u, v, _ = g.edges[eid]
        x = g.nv + j
        ia, ib, im = len(ends), len(ends) + 1, len(ends) + 2
        ends.extend([(u, x), (x, v), (x, x)])
        rotations[u].append(2 * ia)
        rotations[v].append(2 * ib + 1)
        rotations.append([2 * ia + 1, 2 * im, 2 * ib, 2 * im + 1])
        classes.append(cls[u] ^ 1)
        handles.append(Handle(eid, u, v, x, ia, ib, im))
    for slots, side in zip(rotations, classes):
        if side:
            slots.reverse()

    scheme = RotationScheme(len(rotations), ends, rotations, [0] * len(ends))
    faces = scheme.trace_faces()
    surf = StabilizedSurface(g, eps, stabilized, scheme, faces,
                             tuple(handles), edge_of_gem)
    base = subgraph_rho(g, eps, apex)
    if not isinstance(base, list) and surf.genus != base + len(handles):
        raise GemError("stabilized surface genus %s, expected %s + %d"
                       % (surf.genus, base, len(handles)))
    return surf
