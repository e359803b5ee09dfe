"""Membership certification: surface criterion, link verdicts, attestations."""

import itertools
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemtrisect.cli import GemFile, relabel_apex
from gemtrisect.diagrams import assemble_diagram
from gemtrisect.embedding import _chi_formula, cyclic_permutations, rho
from gemtrisect.graphs import (
    DipoleReducer,
    DisconnectedError,
    GemError,
    LoopEdgeError,
    NotProperError,
    NotRegularError,
    blob_insert,
    build_graph,
    residue_subgem,
    residues,
)
from gemtrisect.homology import (HomologyGroup, bound_ledger, boundary_h1,
                                 chain_complex, pi1_presentation)
from gemtrisect.trisection import sweep
from gemtrisect.validation import (
    NON_SPHERE,
    SPHERE,
    UNKNOWN,
    MultipleApexResidues,
    NotAGem,
    all_surfaces_spheres,
    certify_Gs4,
    check_surface_residues,
    classify_colors,
    parse_attestations,
    settle_simply_connected,
    _genus_zero,
    _three_manifold_verdict,
)
from gemtrisect.graphs import standard_sphere_gem

from conftest import (complementary_subgems, fixture_graph, grow_gem,
                      pipeline_corpus, s1s3_welds, shuffled, weld)
import reference
from reference import cancel_dipole, find_dipole


def _torus_inside_gem():
    # K33 Latin-square torus as the (0,1,2)-residue; colors 3 and 4 are
    # parallel matchings so the graph is a legal 5-regular multigraph
    edges = [(i, 3 + j, (i + j) % 3) for i in range(3) for j in range(3)]
    edges += [(0, 3, 3), (1, 4, 3), (2, 5, 3)]
    edges += [(0, 3, 4), (1, 4, 4), (2, 5, 4)]
    return build_graph(4, edges)


def test_surface_criterion_sphere_gem(s4_gem):
    verdicts = check_surface_residues(s4_gem)
    assert len(verdicts) == 10
    assert set(verdicts.values()) == {SPHERE}


def test_surface_criterion_flags_torus():
    g = _torus_inside_gem()
    verdicts = check_surface_residues(g)
    assert verdicts[((0, 1, 2), 0)] == NON_SPHERE
    assert not all_surfaces_spheres(g)
    # one condition, one exception, from one check
    message = "3-colored residues are not all spheres: [((0, 1, 2), 0)]"
    with pytest.raises(NotAGem) as raised:
        certify_Gs4(g)
    assert str(raised.value) == message
    with pytest.raises(NotAGem) as raised:
        classify_colors(g)
    assert str(raised.value) == message


def test_certify_checks_surfaces_once(datadir_gem, monkeypatch):
    # the totals settle a member; only a failing gem names its residues
    import gemtrisect.validation as validation

    calls = []
    check = validation.check_surface_residues
    monkeypatch.setattr(validation, "check_surface_residues",
                        lambda g: calls.append(g) or check(g))
    g = datadir_gem("projective_plane_like.gem").graph
    certify_Gs4(g)
    assert calls == []
    torus = _torus_inside_gem()
    with pytest.raises(NotAGem):
        certify_Gs4(torus)
    assert calls == [torus]


def _random_matching_graphs(count=300, seed=23):
    """Connected 5-colored bipartite graphs: five random perfect
    matchings between two classes of 4 to 12 vertices."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        half = rng.randrange(4, 13)
        edges = []
        for c in range(5):
            partner = list(range(half, 2 * half))
            rng.shuffle(partner)
            edges += [(u, v, c) for u, v in enumerate(partner)]
        try:
            out.append(build_graph(4, edges))
        except DisconnectedError:
            continue
    return out


def test_surface_totals_match_per_residue_check():
    outcomes = set()
    for g in _random_matching_graphs():
        spheres = all_surfaces_spheres(g)
        assert spheres == all(v == SPHERE for v in
                              check_surface_residues(g).values())
        outcomes.add(spheres)
    assert outcomes == {True, False}


def test_surface_criterion_on_corpus():
    rng = random.Random(11)
    for _ in range(20):
        g = grow_gem(standard_sphere_gem(4), rng.randrange(1, 7), rng)
        assert set(check_surface_residues(g).values()) == {SPHERE}


def test_link_verdict_sphere_direct(s3_gem):
    assert _three_manifold_verdict(s3_gem) == SPHERE


def test_link_verdict_sphere_through_dipole_chain():
    rng = random.Random(5)
    for _ in range(15):
        g = grow_gem(standard_sphere_gem(3), rng.randrange(1, 8), rng)
        assert _three_manifold_verdict(g) == SPHERE


def test_link_verdict_non_sphere(datadir_gem):
    gf = datadir_gem("s1s2_3manifold.gem")
    assert _three_manifold_verdict(gf.graph) == NON_SPHERE


def test_dipole_cancellation_shrinks_and_preserves():
    g = standard_sphere_gem(3)
    g = blob_insert(g, g.incident(0, 2))
    g = blob_insert(g, g.incident(0, 0))
    while True:
        dip = find_dipole(g)
        if dip is None:
            break
        h = cancel_dipole(g, *dip)
        assert h.nv == g.nv - 2
        assert _three_manifold_verdict(h) == SPHERE
        g = h
    assert g.nv == 2


def test_blob_pair_is_never_a_dipole_when_residue_agrees(s4_gem):
    # the two sphere-gem vertices share every residue, so no dipole
    assert find_dipole(s4_gem) is None


def test_certify_sphere_gem(s4_gem):
    rep = certify_Gs4(s4_gem)
    assert rep.gs4_member
    assert rep.closed
    assert rep.orientable
    assert rep.simply_connected is None     # settled after the diagram
    assert settle_simply_connected(s4_gem, rep).simply_connected
    assert rep.boundary_spheres == 0
    assert rep.singular_colors == frozenset()
    assert rep.undetermined_colors == frozenset()
    assert rep.conflicts == ()
    assert rep.attestations_used == ()
    d = rep.as_dict()
    assert d["gs4_member"] is True
    assert d["singular_colors"] == []


def test_certify_requires_dimension_four(s3_gem):
    with pytest.raises(GemError):
        certify_Gs4(s3_gem)


def test_split_apex_residue_rejected(blob4_gem):
    with pytest.raises(MultipleApexResidues):
        certify_Gs4(blob4_gem)


def test_corpus_certifies_closed():
    for g in pipeline_corpus(count=30):
        rep = certify_Gs4(g)
        assert rep.gs4_member
        assert rep.closed
        assert rep.conflicts == ()


def test_fixture_closed_manifold(datadir_gem):
    g, att = _gf(datadir_gem, "projective_plane_like.gem")
    rep = certify_Gs4(g, att)
    assert rep.gs4_member
    assert rep.closed
    assert settle_simply_connected(g, rep).simply_connected
    assert rep.singular_colors == frozenset()


def test_fixture_two_singular_colors(datadir_gem):
    rep = certify_Gs4(*_gf(datadir_gem, "two_singular_colors.gem"))
    assert not rep.gs4_member
    assert rep.singular_colors == frozenset({0, 3})
    assert rep.color_verdicts[0] == (NON_SPHERE,)
    assert rep.color_verdicts[1] == (SPHERE,)


def test_fixture_bounded(datadir_gem):
    rep = certify_Gs4(*_gf(datadir_gem, "bounded_s1s2.gem"))
    assert rep.gs4_member
    assert rep.closed is False
    assert rep.boundary_verdict == NON_SPHERE
    assert rep.boundary_spheres == 1
    assert rep.attestations_used == ("boundary=#1(S1xS2)",)
    assert rep.conflicts == ()


def _gf(loader, name):
    gf = loader(name)
    return gf.graph, gf.attestations


def test_boundary_attestation_checked_against_homology(datadir_gem):
    g, _ = _gf(datadir_gem, "bounded_s1s2.gem")
    rep = certify_Gs4(g, {"boundary": "#2(S1xS2)"})
    assert rep.boundary_spheres is None
    assert any("inconsistent with H1" in c for c in rep.conflicts)


def test_sphere_attestation_cannot_flip_proof(datadir_gem):
    g, _ = _gf(datadir_gem, "two_singular_colors.gem")
    rep = certify_Gs4(g, {"sphere": "0:0"})
    assert not rep.gs4_member
    assert rep.attestations_used == ()
    assert any("contradicts a proven non-sphere" in c for c in rep.conflicts)


def test_redundant_attestations_not_recorded(s4_gem):
    rep = certify_Gs4(s4_gem, {"sphere": "0:0", "simply-connected": "yes"})
    settle_simply_connected(s4_gem, rep)
    assert rep.attestations_used == ()
    assert rep.conflicts == ()
    assert rep.gs4_member


def test_sphere_attestation_out_of_range(s4_gem):
    # a negative index must not pick a residue from the end
    for item in ("2:9", "2:-1"):
        rep = certify_Gs4(s4_gem, {"sphere": item})
        assert rep.conflicts == (
            "sphere attestation %s matches no residue" % item,)


def _verdicts_unknown(monkeypatch, apex=UNKNOWN):
    """Make every residue verdict UNKNOWN, and the apex one `apex`."""
    import gemtrisect.validation as validation

    real = validation._classify_colors

    def unknown(g):
        out = {c: (UNKNOWN,) * len(vs) for c, vs in real(g).items()}
        out[4] = (apex,) * len(out[4])
        return out

    monkeypatch.setattr(validation, "_classify_colors", unknown)


def test_attestations_upgrade_unknown_verdicts(s4_gem, monkeypatch):
    _verdicts_unknown(monkeypatch)
    rep = certify_Gs4(s4_gem)
    assert not rep.gs4_member and rep.closed is None
    assert rep.undetermined_colors == frozenset(range(5))
    rep = certify_Gs4(s4_gem, {"sphere": "0,1:0,2,3,4"})
    assert rep.gs4_member and rep.closed
    assert rep.boundary_verdict == SPHERE and rep.boundary_spheres == 0
    assert rep.attestations_used == tuple(
        "sphere=%d:0" % c for c in range(5))
    assert rep.conflicts == ()
    rep = certify_Gs4(s4_gem, {"boundary": "#0(S1xS2)"})
    assert rep.boundary_verdict == SPHERE and rep.closed
    assert rep.attestations_used == ("boundary=#0(S1xS2)",)


def test_boundary_attestation_against_the_verdict(datadir_gem, s4_gem,
                                                  monkeypatch):
    # H1 agrees with #1(S1xS2), but the boundary was attested a sphere
    _verdicts_unknown(monkeypatch)
    g, _ = _gf(datadir_gem, "bounded_s1s2.gem")
    rep = certify_Gs4(g, {"sphere": "4:0", "boundary": "#1(S1xS2)"})
    assert rep.conflicts == (
        "boundary attested #1(S1xS2) but proven a 3-sphere",)
    assert rep.attestations_used == ("sphere=4:0",)
    # H1 = 0 agrees with #0(S1xS2), but the boundary is a non-sphere
    _verdicts_unknown(monkeypatch, apex=NON_SPHERE)
    rep = certify_Gs4(s4_gem, {"boundary": "#0(S1xS2)"})
    assert rep.conflicts == (
        "boundary attested a 3-sphere but proven otherwise",)
    assert rep.boundary_spheres is None and rep.closed is False


def test_simply_connected_attestation_checked_against_h1(s4_gem,
                                                          monkeypatch):
    # a presentation that keeps a generator proves nothing; the
    # attestation then stands or falls with H1
    import gemtrisect.validation as validation

    def settled(attestations=None):
        return settle_simply_connected(s4_gem,
                                       certify_Gs4(s4_gem, attestations))

    monkeypatch.setattr(validation, "pi1_presentation",
                        lambda g: types.SimpleNamespace(num_generators=1))
    assert not settled().simply_connected
    rep = settled({"simply-connected": "yes"})
    assert rep.simply_connected
    assert rep.attestations_used == ("simply-connected=yes",)
    monkeypatch.setattr(validation, "h1", lambda g: HomologyGroup(1))
    rep = settled({"simply-connected": "yes"})
    assert not rep.simply_connected and rep.attestations_used == ()
    assert rep.conflicts == (
        "simply-connected attestation inconsistent with H1=%r"
        % HomologyGroup(1),)


def test_simply_connected_entries_come_last(s4_gem, monkeypatch):
    # settled after certification, the flag's entries follow the
    # sphere and boundary ones in both lists
    import gemtrisect.validation as validation

    _verdicts_unknown(monkeypatch)
    monkeypatch.setattr(validation, "pi1_presentation",
                        lambda g: types.SimpleNamespace(num_generators=1))
    att = {"sphere": "0,1:0,2,3,4,9", "boundary": "#0(S1xS2)",
           "simply-connected": "yes"}
    rep = settle_simply_connected(s4_gem, certify_Gs4(s4_gem, att))
    assert rep.attestations_used[-1] == "simply-connected=yes"
    assert rep.attestations_used[:-1] == tuple(
        "sphere=%d:0" % c for c in range(5)) + ("boundary=#0(S1xS2)",)
    assert rep.conflicts == ("sphere attestation 9:0 matches no residue",)
    monkeypatch.setattr(validation, "h1", lambda g: HomologyGroup(1))
    rep = settle_simply_connected(s4_gem, certify_Gs4(s4_gem, att))
    assert rep.conflicts[-1].startswith("simply-connected attestation")
    assert len(rep.conflicts) == 2


def test_zero_boundary_attestation_on_closed_gem(s4_gem):
    rep = certify_Gs4(s4_gem, {"boundary": "#0(S1xS2)"})
    assert rep.closed
    assert rep.boundary_spheres == 0
    assert "boundary=#0(S1xS2)" in rep.attestations_used


def test_parse_attestations():
    out = parse_attestations(
        {"sphere": "4:0, 4:1, 3", "boundary": "#12(S1xS2)",
         "simply-connected": "yes", "name": "x"})
    assert out["sphere"] == {(4, 0), (4, 1), (3, 0)}
    assert out["boundary"] == 12
    assert out["simply_connected"] is True
    assert out["name"] == "x"
    assert parse_attestations(None)["boundary"] is None
    assert parse_attestations({"simply_connected": "no"})[
        "simply_connected"] is False


def test_parse_attestations_rejects_garbage():
    with pytest.raises(GemError):
        parse_attestations({"boundary": "S1xS2"})
    with pytest.raises(GemError):
        parse_attestations({"flavor": "grape"})
    with pytest.raises(GemError, match="x:y"):
        parse_attestations({"sphere": "0:1, x:y"})


def test_classify_colors_healthy(s4_gem):
    singular, undetermined, verdicts = classify_colors(s4_gem)
    assert singular == frozenset()
    assert undetermined == frozenset()
    assert all(v == (SPHERE,) for v in verdicts.values())


def test_other_apex_color_works(s4_gem):
    rep = certify_Gs4(relabel_apex(GemFile(4, None, {}, s4_gem), 0).graph)
    assert rep.gs4_member
    assert rep.apex_color == 4


def test_apex_split_detected_for_alternate_apex(s4_gem):
    g = blob_insert(s4_gem, s4_gem.incident(0, 2))
    with pytest.raises(MultipleApexResidues):
        certify_Gs4(relabel_apex(GemFile(4, None, {}, g), 2).graph)
    rep = certify_Gs4(g)
    assert rep.gs4_member


# -- incremental dipole chain against the rebuild-per-dipole reference -----

def _reference_chain(sub):
    """find_dipole -> cancel_dipole -> rho per step, the unoptimised loop.

    Returns (dipoles in sub's vertex ids, end graph, genus 0 reached).
    """
    cur = sub
    ids = list(range(sub.nv))       # sub's id of each vertex of cur
    dipoles = []
    while True:
        if any(rho(cur, eps) == 0 for eps in cyclic_permutations(cur.n)):
            return dipoles, cur, True
        dip = find_dipole(cur)
        if dip is None:
            return dipoles, cur, False
        u, v, colors = dip
        dipoles.append((ids[u], ids[v], colors))
        ids = [w for i, w in enumerate(ids) if i not in (u, v)]
        cur = cancel_dipole(cur, u, v, colors)


def _reducer_chain(g, res=None):
    """The same chain on a DipoleReducer; mirrors _three_manifold_verdict.

    The chain runs on the residue res of g (all of g by default) in g's
    ids; its dipoles are mapped to the ids and colors of the residue's
    sub-gem, which numbers both in g's order.
    """
    if res is None:
        res = residues(g, g.colors)[0]
    cols = sorted(res.colors)
    vmap = {v: i for i, v in enumerate(res.vertices)}
    cycles = [tuple(cols[i] for i in eps.seq)
              for eps in cyclic_permutations(len(cols) - 1)]
    chain = DipoleReducer(g, res)
    dipoles = []
    while not _genus_zero(chain.pair_counts, chain.nv, cycles):
        dip = chain.cancel_next()
        if dip is None:
            return dipoles, reference.dipole_chain_graph(chain), False
        u, v, colors = dip
        dipoles.append((vmap[u], vmap[v], frozenset(map(cols.index, colors))))
    return dipoles, reference.dipole_chain_graph(chain), True


def _fallback(sub):
    if pi1_presentation(sub).abelianization().min_generators != 0:
        return NON_SPHERE
    return UNKNOWN


# the 4-dimensional fixtures; sums with the last two have residues
# whose chains end without a sphere
FIXTURES_4D = ("projective_plane_like.gem", "nonzero_forest.gem",
               "two_singular_colors.gem", "bounded_s1s2.gem")


def _chain_corpus(seed=2504):
    """Seeded 4-dimensional gems whose residues exercise the chain.

    Shuffled chain sums of projective_plane_like.gem and
    nonzero_forest.gem, sphere-blob gems, and random-weld sums of every
    4-dimensional fixture.
    """
    rng = random.Random(seed)
    fixtures = {name: fixture_graph(name) for name in FIXTURES_4D}
    out = []
    for name in FIXTURES_4D[:2]:
        for m in (3, 6, 9, 12):
            g = fixtures[name]
            for _ in range(m - 1):
                g = weld(g, fixtures[name], rng, at=(1, 0))
            out.append(shuffled(g, rng))
    for _ in range(12):
        out.append(grow_gem(standard_sphere_gem(4), rng.randrange(8, 24),
                            rng, colors=(0, 1, 2, 3)))
    for _ in range(20):
        g = fixtures[rng.choice(FIXTURES_4D)]
        for _ in range(rng.randrange(1, 6)):
            g = weld(g, fixtures[rng.choice(FIXTURES_4D)], rng)
        out.append(shuffled(g, rng))
    return out


def test_dipole_reducer_matches_reference_chain():
    subs = dipoles = unfinished = 0
    for g in _chain_corpus():
        # every 3-residue is a 2-sphere, so each 4-residue is a closed
        # 3-manifold: chi = 0 cannot refute a 3-sphere in the verdict
        assert set(check_surface_residues(g).values()) == {SPHERE}
        for sub in complementary_subgems(g):
            assert chain_complex(sub).euler_characteristic() == 0
            ref = _reference_chain(sub)
            assert _reducer_chain(sub) == ref
            expect = SPHERE if ref[2] else _fallback(sub)
            assert _three_manifold_verdict(sub) == expect
            subs += 1
            dipoles += len(ref[0])
            unfinished += not ref[2]
    # the corpus must reach deep chains and chains that end unproven
    assert subs >= 400 and dipoles >= 1000 and unfinished >= 30


def test_dipole_reducer_keeps_chi_sums_up_to_date():
    # the chain of every residue missing one color, run on g itself as
    # the verdict runs it: after each cancellation the kept sums equal
    # the ones re-summed from the pair counts
    steps = 0
    for g in _chain_corpus():
        for c in g.colors:
            for res in residues(g, frozenset(g.colors) - {c}):
                cols = sorted(res.colors)
                cycles = [tuple(cols[i] for i in eps.seq)
                          for eps in cyclic_permutations(len(cols) - 1)]
                chain = DipoleReducer(g, res, cycles)
                while True:
                    assert chain.chi == [
                        _chi_formula(chain.pair_counts, seq, chain.nv)
                        for seq in cycles]
                    if chain.cancel_next() is None:
                        break
                    steps += 1
    assert steps >= 1000


def _scanned_subgem(g, res):
    """The residue's gem, built from a scan of g's edges: no memo shared."""
    cmap = {c: i for i, c in enumerate(sorted(res.colors))}
    vmap = {v: i for i, v in enumerate(res.vertices)}
    return build_graph(len(cmap) - 1, [
        (vmap[u], vmap[v], cmap[c]) for u, v, c in g.edges
        if c in cmap and u in vmap])


def _check_residue_chains(g):
    """Chains and verdicts on g's residues against the reference chain.

    Every residue missing one color runs its chain on g; the mapped
    dipoles, the end graph and the verdict must equal the reference
    chain's on a fresh sub-gem.  Returns the number of colors whose
    complement splits into several residues.
    """
    import gemtrisect.validation as validation

    check_surface_residues(g)
    verdicts = validation._classify_colors(g)
    for c in g.colors:
        split = residues(g, frozenset(g.colors) - {c})
        assert len(split) == len(verdicts[c])
        for res, verdict in zip(split, verdicts[c]):
            fresh = _scanned_subgem(g, res)
            ref = _reference_chain(fresh)
            assert _reducer_chain(g, res) == ref
            assert verdict == (SPHERE if ref[2] else _fallback(fresh))
    return sum(len(vs) > 1 for vs in verdicts.values())


def test_verdicts_seeded_from_the_parent_match_reference_chain():
    # colors with several 4-residues, where a count or a label read off
    # the wrong residue of g would show
    assert sum(_check_residue_chains(g) for g in _chain_corpus()) >= 50


@pytest.mark.slow
def test_residue_chains_match_reference_chain_on_random_sums():
    """Seeded fuzz: random-weld sums of all four fixtures, plus blobs.

    Blobs go on any color, so colors split into several residues.  Kept
    out of the default run: its 600 gems take about 11 s on one core
    of a 2-CPU virtual machine.
    """
    rng = random.Random(1517)
    fixtures = [fixture_graph(name) for name in FIXTURES_4D]
    split = 0
    for _ in range(600):
        g = rng.choice(fixtures)
        for _ in range(rng.randrange(0, 5)):
            g = weld(g, rng.choice(fixtures), rng)
        g = grow_gem(g, rng.randrange(0, 6), rng)
        split += _check_residue_chains(shuffled(g, rng))
    assert split >= 1000


def test_pipeline_builds_no_subgem():
    # every 4-residue of a #8 chain sum is proven a 3-sphere on g
    # itself, and the ledger's and the verifier's boundary H1 is the
    # one that proof stored, so no stage builds a residue's sub-gem
    rng = random.Random(8)
    fixture = g = fixture_graph("projective_plane_like.gem")
    for _ in range(7):
        g = weld(g, fixture, rng, at=(1, 0))
    g = shuffled(g, rng)
    rep = certify_Gs4(g)
    assert rep.gs4_member and rep.closed
    best = sweep(g, cyclic_permutations(4))
    assert best.genus == 8
    ledger = bound_ledger(g, best, rep.boundary_spheres)
    assert ledger.violations() == []
    assert assemble_diagram(g, best.eps, best).record.ok
    assert [k for k in g._memo
            if isinstance(k, tuple) and k[0] == "subgem"] == []


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_dipole_reducer_pair_counts_track_rebuilt_graph(seed):
    rng = random.Random(seed)
    g = fixture_graph(rng.choice(FIXTURES_4D))
    for _ in range(rng.randrange(0, 3)):
        g = weld(g, fixture_graph(rng.choice(FIXTURES_4D)), rng)
    g = grow_gem(g, rng.randrange(0, 4), rng, colors=(0, 1, 2, 3))
    for sub in complementary_subgems(shuffled(g, rng)):
        chain = DipoleReducer(sub)
        while chain.cancel_next() is not None:
            cur = reference.dipole_chain_graph(chain)
            assert chain.nv == cur.nv
            assert chain.pair_counts == {
                frozenset(p): len(residues(cur, p))
                for p in itertools.combinations(cur.colors, 2)}


# -- proven spheres carry H1 = 0; sub-gems skip build's checks ------------

def _h1_corpus(seed=4434, sums_to=8):
    """Gems whose 4-residues are proven spheres, and some that are not.

    pipeline_corpus, shuffled chain sums #2-#sums_to of
    projective_plane_like.gem and nonzero_forest.gem, sphere blobs, and
    bounded_s1s2.gem, whose boundary has H1 = Z.
    """
    rng = random.Random(seed)
    out = pipeline_corpus(count=20)
    for name in FIXTURES_4D[:2]:
        fixture = g = fixture_graph(name)
        for m in range(2, sums_to + 1):
            g = weld(g, fixture, rng, at=(1, 0))
            out.append(shuffled(g, rng))
    for _ in range(6):
        out.append(grow_gem(standard_sphere_gem(4), rng.randrange(8, 24),
                            rng, colors=(0, 1, 2, 3)))
    out.append(fixture_graph("bounded_s1s2.gem"))
    return out


def _fresh_h1(g):
    """H1 from pi1 built on a new copy of g, so no memo can answer."""
    return pi1_presentation(build_graph(g.n, g.edges)).abelianization()


def test_proven_spheres_have_trivial_h1():
    spheres = 0
    for g in _h1_corpus():
        for sub in complementary_subgems(g):
            if _three_manifold_verdict(sub) == SPHERE:
                assert _fresh_h1(sub) == HomologyGroup(0)
                spheres += 1
    assert spheres >= 350


def test_boundary_h1_matches_pi1_on_corpus():
    nontrivial = 0
    for g in _h1_corpus():
        boundary, = residues(g, frozenset(range(4)))
        expect = _fresh_h1(residue_subgem(g, boundary)[0])
        # once from pi1 on a copy no verdict has seen, once after
        # certification has left its verdicts' H1 on the sub-gems
        assert boundary_h1(build_graph(g.n, g.edges)) == expect
        certify_Gs4(g)
        assert boundary_h1(g) == expect
        nontrivial += expect != HomologyGroup(0)
    assert nontrivial >= 1


def test_trusted_subgems_equal_built_ones():
    for g in _h1_corpus():
        for r in range(2, g.n + 2):
            for cs in itertools.combinations(g.colors, r):
                for res in residues(g, cs):
                    sub = residue_subgem(g, res)[0]
                    ref = _scanned_subgem(g, res)
                    assert (sub.n, sub.nv, sub.edges, sub._inc) == (
                        ref.n, ref.nv, ref.edges, ref._inc)


def test_one_color_residue_is_refused():
    g = fixture_graph("projective_plane_like.gem")
    for cs in [(c,) for c in g.colors] + [()]:
        with pytest.raises(GemError):
            residue_subgem(g, residues(g, cs)[0])


# -- the chain on bitmask plans against the dict-based chain --------------

def _step_both_chains(g):
    """Run every chain of a residue missing one color, as the verdict
    runs it on g but on to its end, beside the dict-based chain: after
    each cancellation both agree on the dipole, chi, the pair counts,
    the order and the graph.  Returns the number of cancellations."""
    steps = 0
    check_surface_residues(g)
    for c in g.colors:
        for res in residues(g, frozenset(g.colors) - {c}):
            cols = sorted(res.colors)
            cycles = [tuple(cols[i] for i in eps.seq)
                      for eps in cyclic_permutations(len(cols) - 1)]
            new = DipoleReducer(g, res, cycles)
            old = reference.DipoleReducer(g, res, cycles)
            while True:
                assert (new.chi, new.pair_counts, new.nv) == (
                    old.chi, old.pair_counts, old.nv)
                assert reference.dipole_chain_graph(new) == old.graph()
                step = new.cancel_next()
                assert step == old.cancel_next()
                if step is None:
                    break
                steps += 1
    return steps


def test_dipole_reducer_matches_dict_reducer_at_every_step():
    # the chains of the H1 corpus, on the list rows against dict rows
    assert sum(map(_step_both_chains, _h1_corpus(sums_to=16))) >= 4000


def test_dipole_reducer_matches_dict_reducer_on_s1s3_welds():
    # closed gems with pi1 != 1, and chain sums of nonzero_forest.gem
    gems = s1s3_welds(count=16, seed=28)
    nf = fixture_graph("nonzero_forest.gem")
    rng = random.Random(28)
    for m in (2, 4, 6):
        g = nf
        for _ in range(m - 1):
            g = weld(g, nf, rng)
        gems.append(shuffled(g, rng))
    assert sum(map(_step_both_chains, gems)) >= 800


# -- proven spheres checked on the chain's own rows ------------------------

def _gem_error(call):
    """The GemError class call raises, or None."""
    try:
        call()
    except GemError as exc:
        return type(exc)
    return None


def test_chain_check_passes_where_the_rebuilt_graph_does():
    steps = 0
    for g in _chain_corpus():
        for c in g.colors:
            for res in residues(g, frozenset(g.colors) - {c}):
                chain = DipoleReducer(g, res)
                while True:
                    assert _gem_error(chain.check) == _gem_error(
                        lambda: reference.dipole_chain_graph(chain))
                    if chain.cancel_next() is None:
                        break
                    steps += 1
    assert steps >= 1000


def test_chain_check_refuses_broken_rows():
    g = _chain_corpus()[1]
    res = residues(g, frozenset(range(4)))[0]

    def chain():
        """The chain three cancellations down, and one vertex it dropped."""
        ch = DipoleReducer(g, res)
        gone = [ch.cancel_next()[0] for _ in range(3)]
        ch.check()
        return ch, gone[0]

    ch, _ = chain()
    v = next(w for w, row in enumerate(ch._nbr) if row is not None)
    mutants = []
    ch, _ = chain()             # v's color-0 end moved: asymmetric rows
    ch._nbr[v][0] = next(x for x, row in enumerate(ch._nbr)
                         if row is not None and x != v and row[0] != v)
    mutants.append((ch, NotProperError))
    ch, _ = chain()
    ch._nbr[v][1] = v
    mutants.append((ch, LoopEdgeError))
    ch, _ = chain()
    ch._nbr[v].pop()
    mutants.append((ch, NotRegularError))
    ch, gone = chain()          # an edge to a cancelled vertex
    ch._nbr[v][2] = gone
    mutants.append((ch, NotRegularError))
    ch, _ = chain()             # ids past either end of the rows
    ch._nbr[v][2] = -1
    mutants.append((ch, NotRegularError))
    ch, _ = chain()
    ch._nbr[v][3] = len(ch._nbr)
    mutants.append((ch, NotRegularError))
    ch, _ = chain()             # an order-2 gem beside the survivors
    top = len(ch._nbr)
    ch._nbr += [[top + 1] * 4, [top] * 4]
    mutants.append((ch, DisconnectedError))
    for ch, error in mutants:
        with pytest.raises(error):
            ch.check()


def test_verdict_does_not_prove_a_sphere_whose_check_fails(monkeypatch):
    # a chain whose rows fail check() breaks off, and the verdict falls
    # back to H1, as it did when graph() was rebuilt to validate them
    def broken(self):
        raise GemError("rows refused")

    # spheres the chain has to prove: no order has genus 0 at the start
    chained = [sub for g in _chain_corpus()[:4]
               for sub in complementary_subgems(g)
               if all(rho(sub, eps) for eps in cyclic_permutations(3))
               and _three_manifold_verdict(sub) == SPHERE]
    assert len(chained) >= 3
    monkeypatch.setattr(DipoleReducer, "check", broken)
    assert all(_three_manifold_verdict(build_graph(g.n, g.edges)) == UNKNOWN
               for g in chained)
