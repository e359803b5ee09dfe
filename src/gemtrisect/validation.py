"""Membership checks for the class of graphs the pipeline accepts.

A 5-colored graph qualifies when all its 3-colored residues are
2-spheres, the residue missing the apex color is unique, and every
other color's complementary residues are 3-spheres.  Sphere-ness in
dimension 3 is only semi-decidable at desk scale: genus-0 sweeps prove
it, nontrivial first homology refutes it, anything else stays
"unknown" until the user attests it.
"""

from __future__ import annotations

import itertools
import re

from .embedding import cyclic_permutations
from .graphs import (
    DipoleReducer,
    GemError,
    _brief,
    _chi_formula,
    residue_count,
    residue_cycle_counts,
    residue_labels,
    residues,
    is_bipartite,
)
from .homology import (HomologyGroup, _h1_key, boundary_h1, h1,
                       pi1_presentation, residue_h1)

SPHERE = "sphere"
NON_SPHERE = "non-sphere"
UNKNOWN = "unknown"


class NotAGem(GemError):
    pass


class MultipleApexResidues(GemError):
    pass


class ValidationReport:
    """Everything certify_Gs4 decided, with its evidence trail.

    simply_connected stays None until settle_simply_connected decides
    it; simply_connected_attested is the attestation it weighs.
    """

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
        self.simply_connected = None
        self.simply_connected_attested = kw["simply_connected_attested"]
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


def all_surfaces_spheres(g):
    """Whether every 3-colored residue of g is a 2-sphere.

    A 3-colored residue on 2q vertices has Euler characteristic chi =
    (its three bicolored-cycle counts) - q, at most 2 and 2 only for
    the 2-sphere.  The chi of a color set's residues add up, so they are
    all spheres iff the set's three cycle totals less nv / 2 come to
    twice its residue count.  Each pair is labelled before its triple,
    which is then joined from its lowest pair.
    """
    for sub in itertools.combinations(g.colors, 3):
        cycles = sum(residue_count(g, pair)
                     for pair in itertools.combinations(sub, 2))
        if 2 * cycles - g.nv != 4 * residue_count(g, sub):
            return False
    return True


def _genus_zero(pair_count, order, cycles):
    """Some cyclic permutation in cycles has regular genus 0 (chi = 2)."""
    return any(_chi_formula(pair_count, seq, order) == 2 for seq in cycles)


def _three_manifold_verdict(g, res=None):
    """sphere / non-sphere / unknown for a 4-colored residue of g.

    res defaults to all of g.  Genus 0 for some permutation proves the
    sphere, and dipole cancellation preserves the manifold, so the test
    is retried down the reduction chain, which runs on g's own ids and
    counts (see DipoleReducer).  The chain is given the residue's three
    cyclic orders and cancels first the dipoles that raise chi for the
    first of greatest chi, by 2 each: in four colors only a 2-dipole on
    a diagonal of the order, two colors not consecutive in it, changes
    its chi.  An order of genus g needs g such cancellations, so a
    chain that finds them proves the sphere in the fewest steps; when
    they run out, the other dipoles follow in (u, v) order.  A genus-0
    step is taken as a proof once the chain's rows pass build's checks
    (DipoleReducer.check), run on every live row without rebuilding the
    reduced gem; rows that fail end the chain unproven.  The
    permutations are those of the residue's own colors.  Nontrivial H1
    refutes the sphere; anything else stays undecided.  The Euler
    characteristic refutes nothing here: callers have proven every
    3-residue a 2-sphere, so res is a closed 3-manifold and has chi = 0.

    A proof stores H1 = 0 as the residue's memoised residue_h1, so no
    caller builds the sub-gem or pi1 of a proven sphere.  That is sound
    because a 4-colored gem of regular genus 0 represents S^3, and so
    does every gem its dipole cancellations came from: the complex res
    encodes is S^3, whose first homology is trivial.  The differential
    tests build pi1 on fresh copies of every proven sphere to check the
    claim.
    """
    if res is None:
        res = residues(g, g.colors)[0]
    cols = sorted(res.colors)
    cycles = [tuple(cols[i] for i in eps.seq)
              for eps in cyclic_permutations(len(cols) - 1)]
    counts = residue_cycle_counts(g, cols)[
        residue_labels(g, cols)[res.vertices[0]]]
    if _genus_zero(counts, len(res), cycles):
        return _proven_sphere(g, res)
    chain = DipoleReducer(g, res, cycles)
    while chain.cancel_next() is not None:
        if 2 in chain.chi:
            try:
                chain.check()   # welds keep a gem; validated once, here
            except GemError:
                break
            return _proven_sphere(g, res)
    if residue_h1(g, res).min_generators != 0:
        return NON_SPHERE
    return UNKNOWN


def _proven_sphere(g, res):
    """SPHERE, after storing the residue's H1 = 0 for residue_h1."""
    g._memo[_h1_key(res.colors, res.vertices[0])] = HomologyGroup(0)
    return SPHERE


def _require_surface_spheres(g):
    """Raise NotAGem unless every 3-colored residue is a 2-sphere.

    all_surfaces_spheres decides from residue totals; only a gem that
    fails it runs check_surface_residues, to name the bad residues.
    """
    if not all_surfaces_spheres(g):
        bad = sorted(k for k, v in check_surface_residues(g).items()
                     if v == NON_SPHERE)
        raise NotAGem("3-colored residues are not all spheres: %s" % bad)


def classify_colors(g):
    """Per-color verdicts for the complementary 4-colored residues.

    Returns (singular, undetermined, verdicts) where verdicts maps
    each color to the tuple of its residues' verdicts in residue
    order.  Raises NotAGem unless every 3-colored residue passes the
    sphere criterion.
    """
    _require_surface_spheres(g)
    verdicts = _classify_colors(g)
    return (*_singular_undetermined(verdicts), verdicts)


def _classify_colors(g):
    """Per-color verdicts once the surface residues are known spheres."""
    return {c: tuple(_three_manifold_verdict(g, res)
                     for res in residues(g, frozenset(g.colors) - {c}))
            for c in g.colors}


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
                    "got %s" % _brief(item.strip())) from None
    boundary = attest.pop("boundary", None)
    if boundary is not None:
        m = _BOUNDARY_RE.match(str(boundary).strip())
        if not m:
            raise GemError(
                "boundary attestation must look like #m(S1xS2), got %s"
                % _brief(boundary))
        try:
            out["boundary"] = int(m.group(1))
        except ValueError:      # past Python's limit on int digits
            raise GemError("boundary attestation count has too many digits"
                           ) from None
    sc = attest.pop("simply-connected", attest.pop("simply_connected", None))
    if sc is not None:
        out["simply_connected"] = str(sc).lower() in ("yes", "true", "1")
    if attest:
        raise GemError("unknown attestation keys: [%s]"
                       % ", ".join(map(_brief, sorted(attest))))
    return out


def certify_Gs4(g, attestations=None):
    """Decide class membership and build the validation report.

    The apex is color 4.  Attestations can only upgrade "unknown"
    verdicts, never flip a proven one; every upgrade and every conflict
    is recorded.  pi1 is not settled here: the report's simply_connected
    stays None until settle_simply_connected, which the pipeline calls
    after the diagram stage, where a verified trisection may prove pi1
    trivial without building it.
    """
    if g.n != 4:
        raise GemError("classification requires dimension 4")
    apex = 4
    _require_surface_spheres(g)

    apex_key = frozenset(c for c in g.colors if c != apex)
    apex_count = residue_count(g, apex_key)
    if apex_count != 1:
        raise MultipleApexResidues(
            "%d residues miss color %d; need exactly one"
            % (apex_count, apex))

    verdicts = _classify_colors(g)
    att = parse_attestations(attestations)
    used = []
    conflicts = []

    # apply sphere attestations to unknown verdicts only
    upgraded = {c: list(v) for c, v in verdicts.items()}
    for (c, idx) in sorted(att["sphere"]):
        if c not in upgraded or not 0 <= idx < len(upgraded[c]):
            conflicts.append("sphere attestation %s:%s matches no residue"
                             % (_brief(c), _brief(idx)))
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
                "boundary attestation #%s(S1xS2) inconsistent with H1=%r"
                % (_brief(m), h1b))
        elif boundary_verdict == SPHERE and m > 0:
            conflicts.append(
                "boundary attested #%s(S1xS2) but proven a 3-sphere"
                % _brief(m))
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
        simply_connected_attested=att["simply_connected"],
        attestations_used=used,
        conflicts=conflicts,
    )


def settle_simply_connected(g, report):
    """Decide report.simply_connected; returns the report.

    A presentation of pi1 with no generators proves pi1 = 1.
    pi1_presentation(g) is the trivial one when a verified closed
    trisection diagram with some k_i = 0 proved it (see
    diagrams.prove_pi1_trivial), and is otherwise built from the
    2-skeleton and reduced by Tietze moves.  An attested
    simply-connected gem that the presentation leaves open stands when
    H1 = 0 and is a conflict otherwise; either entry goes last in its
    list.
    """
    simply_connected = pi1_presentation(g).num_generators == 0
    if report.simply_connected_attested and not simply_connected:
        h1g = h1(g)
        if h1g.min_generators != 0:
            report.conflicts += (
                "simply-connected attestation inconsistent with H1=%r"
                % h1g,)
        else:
            simply_connected = True
            report.attestations_used += ("simply-connected=yes",)
    report.simply_connected = simply_connected
    return report
