"""Membership checks for the class of graphs the pipeline accepts.

A 5-colored graph qualifies when all its 3-colored residues are
2-spheres, the residue missing the apex color is unique, and every
other color's complementary residues are 3-spheres.  Sphere-ness in
dimension 3 is only semi-decidable at desk scale: genus-0 sweeps prove
it, nontrivial first homology refutes it, anything else stays
"unknown" until the user attests it.
"""

from __future__ import annotations

import functools
import itertools
import re

from .embedding import _chi_formula, cyclic_permutations
from .graphs import (
    DipoleReducer,
    GemError,
    ResidueCensus,
    residue_cycle_counts,
    residue_labels,
    residue_subgem,
    residues,
    is_bipartite,
)
from .homology import HomologyGroup, boundary_h1, h1, pi1_presentation

SPHERE = "sphere"
NON_SPHERE = "non-sphere"
UNKNOWN = "unknown"


class PrerequisiteFailed(GemError):
    pass


class NotAGem(GemError):
    pass


class MultipleApexResidues(GemError):
    pass


class ValidationReport:
    """Everything certify_Gs4 decided, with its evidence trail."""

    apex_color = 4

    def __init__(self, **kw):
        self.color_verdicts = kw["color_verdicts"]
        self.singular_colors = kw["singular_colors"]
        self.undetermined_colors = kw["undetermined_colors"]
        self.gs4_member = kw["gs4_member"]
        self.boundary_verdict = kw["boundary_verdict"]
        self.boundary_spheres = kw["boundary_spheres"]
        self.closed = kw["closed"]
        self.orientable = kw["orientable"]
        self.simply_connected = kw["simply_connected"]
        self.attestations_used = tuple(kw["attestations_used"])
        self.conflicts = tuple(kw["conflicts"])

    def as_dict(self):
        return {
            "apex_color": self.apex_color,
            "color_verdicts": {
                str(c): list(v) for c, v in self.color_verdicts.items()},
            "singular_colors": sorted(self.singular_colors),
            "undetermined_colors": sorted(self.undetermined_colors),
            "gs4_member": self.gs4_member,
            "boundary_verdict": self.boundary_verdict,
            "boundary_spheres": self.boundary_spheres,
            "closed": self.closed,
            "orientable": self.orientable,
            "simply_connected": self.simply_connected,
            "attestations_used": list(self.attestations_used),
            "conflicts": list(self.conflicts),
        }

    def __repr__(self):
        return ("ValidationReport(member=%s, closed=%s, singular=%s)"
                % (self.gs4_member, self.closed,
                   sorted(self.singular_colors)))


def check_surface_residues(g):
    """Exact sphere test for every 3-colored residue.

    A 3-colored residue on 2q vertices is a 2-sphere iff its three
    bicolored-cycle counts sum to q + 2.  Returns {(colors, index):
    verdict}; the verdict is "sphere" or "non-sphere", never unknown.
    """
    out = {}
    for sub in itertools.combinations(g.colors, 3):
        rows = residue_cycle_counts(g, sub)
        for idx, (res, row) in enumerate(zip(residues(g, sub), rows)):
            q = len(res.vertices) // 2
            out[(sub, idx)] = (SPHERE if sum(row.values()) - q == 2
                               else NON_SPHERE)
    return out


def _genus_zero(pair_count, order, cycles):
    """Some cyclic permutation in cycles has regular genus 0 (chi = 2)."""
    return any(_chi_formula(pair_count, seq, order) == 2 for seq in cycles)


def _three_manifold_verdict(sub, pair_counts=None, labels=None):
    """sphere / non-sphere / unknown for a 4-colored graph.

    Genus 0 for some permutation proves the sphere, and dipole
    cancellation preserves the manifold, so the test is retried down
    the reduction chain.  Nontrivial H1 refutes the sphere; anything
    else stays undecided.  The Euler characteristic refutes nothing
    here: callers have proven every 3-residue a 2-sphere, so sub is a
    closed 3-manifold and has chi = 0.

    pair_counts and labels are sub's bicolored-cycle counts and residue
    labels, as DipoleReducer takes them; by default sub computes its
    own, and _classify_colors passes the ones its parent already has.

    A proof stores H1 = 0 as sub's memoised h1, so no caller builds
    pi1 of a proven sphere again.  That is sound because a 4-colored
    gem of regular genus 0 represents S^3, and so does every gem its
    dipole cancellations came from: the complex sub encodes is S^3,
    whose first homology is trivial.  The differential tests build pi1
    on fresh copies of every proven sphere to check the claim.
    """
    if pair_counts is None:
        pair_counts = ResidueCensus(sub)
    cycles = [eps.seq for eps in cyclic_permutations(sub.n)]
    if _genus_zero(pair_counts, sub.nv, cycles):
        return _proven_sphere(sub)
    chain = DipoleReducer(sub, pair_counts, labels)
    while chain.cancel_next() is not None:
        if _genus_zero(chain.pair_counts, chain.nv, cycles):
            try:
                chain.graph()   # welds keep a gem; validated once, here
            except GemError:
                break
            return _proven_sphere(sub)
    if h1(sub).min_generators != 0:
        return NON_SPHERE
    return UNKNOWN


def _proven_sphere(sub):
    """SPHERE, after storing sub's H1 = 0 for h1 to return."""
    sub._memo["h1"] = HomologyGroup(0)
    return SPHERE


def classify_colors(g):
    """Per-color verdicts for the complementary 4-colored residues.

    Returns (singular, undetermined, verdicts) where verdicts maps
    each color to the tuple of its residues' verdicts in residue
    order.  Requires every 3-colored residue to pass the sphere
    criterion first.
    """
    surface = check_surface_residues(g)
    bad = [k for k, v in surface.items() if v == NON_SPHERE]
    if bad:
        raise PrerequisiteFailed(
            "3-colored residues fail the sphere criterion: %s"
            % sorted(bad))
    verdicts = _classify_colors(g)
    return (*_singular_undetermined(verdicts), verdicts)


def _classify_colors(g):
    """Per-color verdicts once the surface residues are known spheres.

    A color's verdicts read their sub-gems' cycle counts and residue
    labels off g, whose pairs and triples check_surface_residues has
    labelled: a {c,d}-cycle or a C-residue of g inside a residue R is
    one of R's sub-gem, so no sub-gem labels residues of its own.
    """
    out = {}
    for c in g.colors:
        cols = [x for x in g.colors if x != c]      # sub-gem color i
        rows = residue_cycle_counts(g, cols)
        out[c] = tuple(
            _three_manifold_verdict(
                residue_subgem(g, res)[0],
                {frozenset(map(cols.index, p)): k for p, k in row.items()},
                functools.partial(_parent_labels, g, cols, res.vertices))
            for res, row in zip(residues(g, cols), rows))
    return out


def _parent_labels(g, cols, verts, colors):
    """residue_labels of a sub-gem's colors, read off its parent g.

    verts are the residue's vertices, so sub-gem vertex x is verts[x],
    and sub-gem color i is cols[i].  The sub-gem numbers its residues
    by minimum vertex, as g does, and keeps the order of verts, so
    renumbering g's labels by first appearance gives its own; when the
    residue is all of g they are g's labels.
    """
    label = residue_labels(g, [cols[i] for i in colors])
    if len(verts) == g.nv:
        return label
    first = {}
    return [first.setdefault(label[v], len(first)) for v in verts]


def _singular_undetermined(verdicts):
    """Colors with a non-sphere residue, and the others with an unknown."""
    singular = frozenset(c for c, vs in verdicts.items() if NON_SPHERE in vs)
    undetermined = frozenset(c for c, vs in verdicts.items()
                             if c not in singular and UNKNOWN in vs)
    return singular, undetermined


_BOUNDARY_RE = re.compile(r"^#(\d+)\(S1xS2\)$")


def parse_attestations(attest):
    """Normalize the attestation mapping; unknown keys are an error."""
    attest = dict(attest or {})
    out = {"sphere": set(), "boundary": None, "simply_connected": False,
           "name": attest.pop("name", None)}
    sphere = attest.pop("sphere", "")
    if sphere:
        for item in str(sphere).split(","):
            c, _, idx = item.strip().partition(":")
            try:
                out["sphere"].add((int(c), int(idx) if idx else 0))
            except ValueError:
                raise GemError(
                    "sphere attestation items must look like c or c:idx, "
                    "got %r" % item.strip()) from None
    boundary = attest.pop("boundary", None)
    if boundary is not None:
        m = _BOUNDARY_RE.match(str(boundary).strip())
        if not m:
            raise GemError(
                "boundary attestation must look like #m(S1xS2), got %r"
                % boundary)
        out["boundary"] = int(m.group(1))
    sc = attest.pop("simply-connected", attest.pop("simply_connected", None))
    if sc is not None:
        out["simply_connected"] = str(sc).lower() in ("yes", "true", "1")
    if attest:
        raise GemError("unknown attestation keys: %s" % sorted(attest))
    return out


def certify_Gs4(g, attestations=None):
    """Decide class membership and build the validation report.

    The apex is color 4.  Attestations can only upgrade "unknown"
    verdicts, never flip a proven one; every upgrade and every conflict
    is recorded.
    """
    if g.n != 4:
        raise GemError("classification requires dimension 4")
    apex = 4
    surface = check_surface_residues(g)
    bad = sorted(k for k, v in surface.items() if v == NON_SPHERE)
    if bad:
        raise NotAGem("3-colored residues are not all spheres: %s" % bad)

    apex_key = frozenset(c for c in g.colors if c != apex)
    apex_residues = residues(g, apex_key)
    if len(apex_residues) != 1:
        raise MultipleApexResidues(
            "%d residues miss color %d; need exactly one"
            % (len(apex_residues), apex))

    verdicts = _classify_colors(g)
    att = parse_attestations(attestations)
    used = []
    conflicts = []

    # apply sphere attestations to unknown verdicts only
    upgraded = {c: list(v) for c, v in verdicts.items()}
    for (c, idx) in sorted(att["sphere"]):
        if c not in upgraded or not 0 <= idx < len(upgraded[c]):
            conflicts.append("sphere attestation %d:%d matches no residue"
                             % (c, idx))
            continue
        cur = upgraded[c][idx]
        if cur == UNKNOWN:
            upgraded[c][idx] = SPHERE
            used.append("sphere=%d:%d" % (c, idx))
        elif cur == NON_SPHERE:
            conflicts.append(
                "sphere attestation %d:%d contradicts a proven non-sphere"
                % (c, idx))
        # already proven: attestation is redundant, not recorded

    member = True
    for c in g.colors:
        if c == apex:
            continue
        if any(v != SPHERE for v in upgraded[c]):
            member = False

    # boundary-role residue: its verdict plus optional classification
    boundary_verdict = upgraded[apex][0]
    boundary_spheres = None
    if att["boundary"] is not None:
        m = att["boundary"]
        h1b = boundary_h1(g)
        if h1b.rank != m or h1b.torsion:
            conflicts.append(
                "boundary attestation #%d(S1xS2) inconsistent with H1=%r"
                % (m, h1b))
        elif boundary_verdict == SPHERE and m > 0:
            conflicts.append(
                "boundary attested #%d(S1xS2) but proven a 3-sphere" % m)
        elif boundary_verdict == NON_SPHERE and m == 0:
            conflicts.append(
                "boundary attested a 3-sphere but proven otherwise")
        else:
            boundary_spheres = m
            used.append("boundary=#%d(S1xS2)" % m)
            if m == 0 and boundary_verdict == UNKNOWN:
                boundary_verdict = SPHERE

    closed = None
    if boundary_verdict == SPHERE:
        closed = True
        boundary_spheres = 0
    elif boundary_verdict == NON_SPHERE or boundary_spheres is not None:
        closed = False

    # A presentation with no generators left after reduction proves pi1 = 1.
    simply_connected = pi1_presentation(g).num_generators == 0
    if att["simply_connected"] and not simply_connected:
        h1g = h1(g)
        if h1g.min_generators != 0:
            conflicts.append(
                "simply-connected attestation inconsistent with H1=%r" % h1g)
        else:
            simply_connected = True
            used.append("simply-connected=yes")

    singular, undetermined = _singular_undetermined(upgraded)
    return ValidationReport(
        color_verdicts={c: tuple(v) for c, v in upgraded.items()},
        singular_colors=singular,
        undetermined_colors=undetermined,
        gs4_member=member,
        boundary_verdict=boundary_verdict,
        boundary_spheres=boundary_spheres,
        closed=closed,
        orientable=is_bipartite(g)[0],
        simply_connected=simply_connected,
        attestations_used=used,
        conflicts=conflicts,
    )
