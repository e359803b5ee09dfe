"""Curve systems, surface resolution checks, and diagram export."""

import itertools
import json
import random
import types
import xml.etree.ElementTree as ET
from bisect import bisect_right
from fractions import Fraction

import pytest

from gemtrisect import diagrams, trisection
from gemtrisect.cli import GemFile, run_pipeline
from gemtrisect.diagrams import (
    CountMismatch,
    ExpansionDiverged,
    TrisectionDiagram,
    UnsupportedFormat,
    _chord_table,
    _cut_test,
    _edge_vector,
    _lanes,
    _pairing,
    _self_crossings,
    _wall_curves,
    alpha_beta_curves,
    assemble_diagram,
    export_diagram,
    gamma_curves,
    verify_diagram,
)
from gemtrisect.embedding import (CyclicPermutation, cyclic_permutations,
                                  stabilized_surface)
from gemtrisect.graphs import (GemError, bicolored_cycles, build_graph,
                               connected_sum, is_bipartite, residues,
                               standard_sphere_gem)
from gemtrisect.homology import _free_reduce, _gf2_extend, chain_complex
from gemtrisect.trisection import (
    CollapseOrdering,
    build_Q,
    certificate,
    collapse_schedule,
    cycle_sizes,
    minimize_k,
    stabilization_set,
    sweep,
    verify_ordering,
)

import reference
from conftest import fixture_graph, pipeline_corpus, s1s3_welds, weld
from reference import (_signed_intersection, _to_walk, corridor_map,
                       lane_orders, resolve_every_disk, signed_surface,
                       stack_crossing_free)
from reference import crossing_free as _reference_crossing_free

IDENT = CyclicPermutation((0, 1, 2, 3, 4))


def _forced(g, eps, extra):
    """Certificate with `extra` squares stabilized on top of the forest."""
    Q = build_Q(g, eps)
    seed = tuple(stabilization_set(g, eps)) + tuple(extra)
    return certificate(g, eps, collapse_schedule(Q, seed))


def test_sphere_diagram_is_empty(s4_gem):
    cert = minimize_k(s4_gem, IDENT)
    d = assemble_diagram(s4_gem, IDENT, cert)
    assert d.genus == 0
    assert d.alpha == d.beta == d.gamma == ()
    assert d.record.ok
    assert export_diagram(d) == (
        b'{"alpha":[],"beta":[],"gamma":[],"genus":0,"k":0,'
        b'"permutation":[0,1,2,3,4]}\n')


def test_forced_handle_diagram(s4_gem):
    cert = _forced(s4_gem, IDENT, s4_gem.edge_ids(4))
    assert cert.k == 1 and cert.genus == 1
    d = assemble_diagram(s4_gem, IDENT, cert)
    assert [c.kind for c in d.alpha] == ["stab_circle"]
    assert [c.kind for c in d.beta] == ["stab_circle"]
    assert len(d.gamma) == 1
    assert any(s[0] == "h" for s in d.gamma[0].steps)
    assert d.record.ok
    assert d.record.checks["pairing_ab"]["expected_rank"] == 1
    assert d.surface.k == 1
    # handle and small-circle steps export the handle index 1-based
    assert [c.steps for c in d.alpha + d.beta] == [(("sc", 0),)] * 2
    assert d.gamma[0].steps == (("e", 3, 1), ("h", 0, -1))
    assert export_diagram(d) == (
        b'{"alpha":[[{"j":1,"t":"sc"}]],"beta":[[{"j":1,"t":"sc"}]],'
        b'"gamma":[[{"d":1,"id":3,"t":"e"},{"d":-1,"j":1,"t":"h"}]],'
        b'"genus":1,"k":1,"permutation":[0,1,2,3,4]}\n')


def test_wall_graphs_sphere(s4_gem):
    # each pair has one cycle, and it joins the two walls: the forest
    # takes it, so neither side keeps a curve
    for node_colors, cycle_colors in (((0, 2), (1, 3)), ((1, 3), (0, 2))):
        assert len(bicolored_cycles(s4_gem, *cycle_colors)) == 1
        for fam in node_colors:
            assert len(residues(s4_gem, {0, 1, 2, 3} - {fam})) == 1
        assert _wall_curves(s4_gem, "alpha", node_colors, cycle_colors) == []


def test_alpha_beta_pruning_matches_genus():
    for g in pipeline_corpus(count=15):
        cert = minimize_k(g, IDENT)
        alpha, beta = alpha_beta_curves(g, IDENT, cert)
        assert len(alpha) == len(beta) == int(cert.genus)
        for c in alpha + beta:
            if c.kind == "stab_circle":
                continue
            for s in c.steps:
                assert s[0] == "e"
                assert g.edges[s[1]][2] != 4


def test_corpus_diagrams_verify():
    perms = list(cyclic_permutations(4))
    for gi, g in enumerate(pipeline_corpus(count=20)):
        for eps in (perms[0], perms[(gi % 11) + 1]):
            cert = minimize_k(g, eps)
            d = assemble_diagram(g, eps, cert)
            assert d.record.ok, d.record.checks


def test_forced_handles_verify(datadir_gem):
    g = datadir_gem("nonzero_forest.gem").graph
    for extra in ((), (16,), (16, 17), (16, 17, 18)):
        cert = _forced(g, IDENT, extra)
        d = assemble_diagram(g, IDENT, cert)
        assert d.record.ok, (extra, d.record.checks)
        seed = set(stabilization_set(g, IDENT)) | set(extra)
        assert d.surface.k == cert.k == len(seed)
        # genus tracks the handle count on top of the base surface
        assert d.genus == int(cert.rho_base) + cert.k


def test_count_mismatch_on_tampered_certificate(s4_gem):
    fake = types.SimpleNamespace(k=0, genus=Fraction(3))
    with pytest.raises(CountMismatch):
        alpha_beta_curves(s4_gem, IDENT, fake)
    fake_half = types.SimpleNamespace(k=0, genus=Fraction(1, 2))
    with pytest.raises(CountMismatch):
        alpha_beta_curves(s4_gem, IDENT, fake_half)


def test_gamma_steps_avoid_apex_edges():
    for g in pipeline_corpus(count=15, seed=5):
        cert = minimize_k(g, IDENT)
        gamma = gamma_curves(build_Q(g, IDENT), cert)
        assert len(gamma) == int(cert.genus)
        for c in gamma:
            for s in c.steps:
                assert s[0] in ("e", "h")
                if s[0] == "e":
                    assert g.edges[s[1]][2] != 4
            # freely reduced, cyclically
            for a, b in zip(c.steps, c.steps[1:] + c.steps[:1]):
                if len(c.steps) > 1:
                    assert not (a[0] == b[0] == "e" and a[1] == b[1]
                                and a[2] == -b[2])


def test_expansion_loop_detected(datadir_gem):
    # mutually witnessing squares: 18 and 19 lie on both cycle 2 and
    # cycle 5, so each expansion reenters the other forever
    g = datadir_gem("nonzero_forest.gem").graph
    Q = build_Q(g, IDENT)
    assert set(Q.q1_edges[2].squares) == {18, 19}
    assert set(Q.q1_edges[5].squares) == {18, 19}
    ordering = CollapseOrdering(
        (16, 17), (18, 19),
        ((Q.q1_edges[2].color, 2), (Q.q1_edges[5].color, 5)))
    with pytest.raises(ExpansionDiverged):
        gamma_curves(Q, types.SimpleNamespace(ordering=ordering))


def test_gamma_refuses_unplaced_square(datadir_gem):
    # square 19 is neither stabilized nor collapsed, yet cycle 10, the
    # one cycle the gamma forest leaves out, runs through it
    g = datadir_gem("nonzero_forest.gem").graph
    Q = build_Q(g, IDENT)
    assert 19 in Q.q1_edges[10].squares
    ordering = CollapseOrdering(
        (), (16, 17, 18),
        ((Q.q1_edges[0].color, 0), (Q.q1_edges[1].color, 1),
         (Q.q1_edges[7].color, 7)))
    with pytest.raises(GemError, match="apex edge 19 is neither stabilized"):
        gamma_curves(Q, types.SimpleNamespace(ordering=ordering))


def test_gamma_refuses_a_witness_cycle_without_its_square(datadir_gem):
    # collapsed square 42 handed the unused cycle 3 as its witness: the
    # ordering check names the fault, and the rewrite raises the same
    # message instead of letting a StopIteration escape
    g = datadir_gem("pp_sum3.gem").graph
    cert = sweep(g, cyclic_permutations(4))
    Q = build_Q(g, cert.eps)
    ordering = cert.ordering
    j = ordering.collapsed.index(42)
    assert 3 not in {idx for _, idx in ordering.witnesses}
    witnesses = list(ordering.witnesses)
    witnesses[j] = (Q.q1_edges[3].color, 3)
    bad = CollapseOrdering(ordering.stabilized, ordering.collapsed,
                           witnesses)
    message = "square 42 does not lie on its witness cycle 3"
    assert verify_ordering(Q, bad) == (False, message)
    with pytest.raises(GemError) as info:
        assemble_diagram(g, cert.eps, certificate(g, cert.eps, bad))
    assert str(info.value) == message


def test_curve_systems_match_reference():
    # kind, steps and cycle index of all three systems against the wall
    # graph records and the two-direction witness rewriting, over seeded
    # gems and orders, welded sums, and forced handles (k > 0)
    rng = random.Random(20261020)
    perms = list(cyclic_permutations(4))
    pp = fixture_graph("projective_plane_like.gem")
    nf = fixture_graph("nonzero_forest.gem")
    cases = []
    for g in pipeline_corpus(count=10, seed=23):
        cases.extend((g, eps, None) for eps in rng.sample(perms, 3))
    for _ in range(4):
        g = pp
        for _ in range(rng.randrange(1, 5)):
            g = weld(g, rng.choice((pp, nf)), rng)
        cases.extend((g, eps, None) for eps in rng.sample(perms, 3))
    for g in (pp, nf, weld(pp, nf, rng)):
        for eps in rng.sample(perms, 2):
            free = sorted(set(build_Q(g, eps).squares)
                          - set(stabilization_set(g, eps)))
            cases.append((g, eps, rng.sample(free, 2)))
    handles = 0
    for g, eps, extra in cases:
        cert = (minimize_k(g, eps) if extra is None
                else _forced(g, eps, extra))
        handles += cert.k
        Q = build_Q(g, eps)
        got = alpha_beta_curves(g, eps, cert) + (gamma_curves(Q, cert),)
        want = (reference.alpha_beta_curves(g, eps, cert)
                + (reference.gamma_curves(Q, cert),))
        for mine, theirs in zip(got, want):
            assert ([(c.kind, c.steps, c.cycle_index) for c in mine]
                    == [(c.kind, c.steps, c.cycle_index) for c in theirs])
    assert handles >= 12


def test_gamma_requires_distinct_witnesses(s4_gem, datadir_gem):
    Q = build_Q(s4_gem, IDENT)
    sq = Q.squares[0]
    ordering = CollapseOrdering((), (sq, sq), ((0, 0), (0, 0)))
    with pytest.raises(GemError, match="witness cycles are not distinct"):
        gamma_curves(Q, types.SimpleNamespace(ordering=ordering))
    # two distinct collapsed squares of cycle 2 both claim it
    Q = build_Q(datadir_gem("nonzero_forest.gem").graph, IDENT)
    ordering = CollapseOrdering(
        (16, 17), (18, 19),
        ((Q.q1_edges[2].color, 2), (Q.q1_edges[2].color, 2)))
    with pytest.raises(GemError, match="witness cycles are not distinct"):
        gamma_curves(Q, types.SimpleNamespace(ordering=ordering))


def _as_systems(walks):
    """A diagram's systems() over raw walks, each held as a curve."""
    return lambda: [(name, [types.SimpleNamespace(walk=w) for w in ws])
                    for name, ws in walks.items()]


def _mutate(d, **repl):
    m = TrisectionDiagram(d.surface, repl.get("alpha", d.alpha),
                          repl.get("beta", d.beta),
                          repl.get("gamma", d.gamma), d.genus, d.mode)
    verify_diagram(m)
    return m


def test_mutations_break_checks(datadir_gem):
    gf = datadir_gem("projective_plane_like.gem")
    certs = [minimize_k(gf.graph, e) for e in cyclic_permutations(4)]
    cert = min(certs, key=lambda c: c.sort_key())
    d = assemble_diagram(gf.graph, cert.eps, cert)
    assert d.genus == 1 and d.record.ok

    dropped = _mutate(d, gamma=())
    assert not dropped.record.ok
    assert not dropped.record.checks["counts"]["pass"]

    crossed = _mutate(d, alpha=d.beta)
    assert not crossed.record.ok
    assert not crossed.record.checks["pairing_ab"]["pass"]


def test_duplicate_curve_breaks_disjointness(s4_gem):
    cert = _forced(s4_gem, IDENT, s4_gem.edge_ids(4))
    base = assemble_diagram(s4_gem, IDENT, cert)
    # a second run of the same meridian collides with itself
    g2 = standard_sphere_gem(4)
    cert2 = _forced(g2, IDENT, g2.edge_ids(4))
    d2 = assemble_diagram(g2, IDENT, cert2)
    assert base.record.ok and d2.record.ok
    twin = TrisectionDiagram(base.surface, base.alpha + base.alpha,
                             base.beta, base.gamma, base.genus, base.mode)
    verify_diagram(twin)
    assert not twin.record.ok
    assert not twin.record.checks["counts"]["pass"]


def test_intersection_antisymmetry_and_self_zero(datadir_gem):
    g = datadir_gem("nonzero_forest.gem").graph
    cert = _forced(g, IDENT, (16, 17))
    d = assemble_diagram(g, IDENT, cert)
    surf = d.surface
    walks = [c.walk for _, curves in d.systems() for c in curves]
    assert len(walks) >= 6
    for wa in walks:
        assert _signed_intersection(surf.scheme, wa, wa) == 0
        for wb in walks:
            ab = _signed_intersection(surf.scheme, wa, wb)
            ba = _signed_intersection(surf.scheme, wb, wa)
            assert ab == -ba


# projective_plane_like.gem has genus 1 and k = 0 under both orders below.
# alpha is the {0,3}-bigon 6 -> 7 -> 6 (edges 3, 15) and beta the
# {1,2}-bigon 4 -> 7 -> 4 (edges 7, 10); they meet only at vertex 7.  The
# path 0-3-6-7 puts vertex 7 in bipartition class 1, so its rotation is
# eps without the apex, reversed.  The right side of a chord is the
# counterclockwise arc from its arrival slot to its departure slot;
# <a, b> counts +1 where b crosses a from right to left.
#   eps 0,1,3,2: ccw colors (2, 3, 1, 0).  alpha arrives at slot 3 and
#     leaves at slot 1, so its right side is slot 0.  beta arrives at
#     slot 2 (left) and leaves at slot 0 (right): <alpha, beta> = -1.
#   eps 0,2,3,1: ccw colors (1, 3, 2, 0).  alpha's right side is again
#     slot 0.  beta arrives at slot 0 (right) and leaves at slot 2
#     (left): <alpha, beta> = +1.
@pytest.mark.parametrize("seq, ccw_colors, expected", [
    ((0, 1, 3, 2, 4), (2, 3, 1, 0), -1),
    ((0, 2, 3, 1, 4), (1, 3, 2, 0), 1),
])
def test_alpha_beta_sign_by_hand(datadir_gem, seq, ccw_colors, expected):
    g = datadir_gem("projective_plane_like.gem").graph
    eps = CyclicPermutation(seq)
    cert = minimize_k(g, eps)
    d = assemble_diagram(g, eps, cert)
    surf = d.surface
    assert (cert.genus, cert.k) == (1, 0)
    assert [c.steps for c in d.alpha] == [(("e", 3, 1), ("e", 15, -1))]
    assert [c.steps for c in d.beta] == [(("e", 7, 1), ("e", 10, -1))]
    assert is_bipartite(g)[1][7] == 1
    # apex-free scheme edge i is gem edge i
    ccw = surf.scheme.rot[7]
    assert tuple(g.edges[h >> 1][2] for h in ccw) == ccw_colors

    scheme = surf.scheme
    rows = {name: _chord_table(scheme, [c.walk for c in curves])[0]
            for name, curves in d.systems()}
    assert _pairing(scheme.rot, rows["alpha"], rows["beta"],
                    1) == [{0: expected}]


def test_json_export_stable_and_schema(datadir_gem):
    gf = datadir_gem("projective_plane_like.gem")
    certs = [minimize_k(gf.graph, e) for e in cyclic_permutations(4)]
    cert = min(certs, key=lambda c: c.sort_key())
    d = assemble_diagram(gf.graph, cert.eps, cert)
    blob = export_diagram(d, "json")
    assert blob == export_diagram(d, "json")
    doc = json.loads(blob)
    assert set(doc) == {"alpha", "beta", "gamma", "genus", "k",
                        "permutation"}
    assert doc["genus"] == 1
    assert doc["permutation"] == list(cert.eps.seq)
    frozen = (gf_dir() / "projective_plane_like.diagram.json").read_bytes()
    assert blob == frozen


def _diagram_corpus(datadir_gem):
    """Verified diagrams with every kind of step.

    The sweep winners of pipeline_corpus and of chain sums #2-#6 of
    both closed fixtures (edge steps only), and forced-k diagrams:
    chain sums of nonzero_forest.gem with seeded extra squares, whose
    alpha and beta run over stabilized circles ("sc") and whose gamma
    runs through handles ("h").
    """
    rng = random.Random(20)
    orders = cyclic_permutations(4)
    gems = pipeline_corpus(count=12)
    for name in ("projective_plane_like.gem", "nonzero_forest.gem"):
        gems += [_chain_sum(datadir_gem(name).graph, m) for m in range(2, 7)]
    out = []
    for g in gems:
        cert = sweep(g, orders)
        out.append(assemble_diagram(g, cert.eps, cert))
    fixture = datadir_gem("nonzero_forest.gem").graph
    for m in range(1, 7):
        g = _chain_sum(fixture, m)
        eps = rng.choice(orders)
        spare = sorted(set(g.edge_ids(4)) - set(stabilization_set(g, eps)))
        extra = rng.sample(spare, min(m, len(spare)))
        out.append(assemble_diagram(g, eps, _forced(g, eps, extra)))
    assert all(d.record.ok for d in out)
    return out


def test_json_export_bytes_match_json_dumps(datadir_gem):
    kinds = set()
    for d in _diagram_corpus(datadir_gem):
        doc = reference.diagram_json_dict(d)
        assert export_diagram(d, "json") == (
            json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode("ascii")
        kinds |= {s[0] for _, curves in d.systems() for c in curves
                  for s in c.steps}
    assert kinds == {"e", "h", "sc"}


def test_vertex_disjoint_systems_are_crossing_free(datadir_gem):
    # verify_diagram records an alpha or beta system that passes the
    # disjointness check as resolved without resolving it: each vertex
    # disk holds one chord of it at most
    skipped = 0
    for d in _diagram_corpus(datadir_gem):
        scheme = d.surface.scheme
        for name in ("alpha", "beta"):
            ws = [c.walk for c in getattr(d, name)]
            assert d.record.checks["disjoint"][name]
            assert stack_crossing_free(*resolve_every_disk(scheme, ws)) == (
                True, None)
            assert d.record.checks["cut"]["systems"][name]["resolved"]
            skipped += bool(ws)
    assert skipped >= 20


def test_only_systems_that_are_not_vertex_disjoint_are_resolved(
        datadir_gem, monkeypatch):
    corpus = _verifier_corpus(datadir_gem)
    cut_test = diagrams._cut_test
    calls = []

    def recording(scheme, ws, rows):
        calls.append(ws)
        return cut_test(scheme, ws, rows)

    monkeypatch.setattr(diagrams, "_cut_test", recording)
    crossed = set()
    for surf, walks in corpus:
        calls.clear()
        record = verify_diagram(types.SimpleNamespace(
            surface=surf, genus=(2 - surf.chi) // 2, mode="trisection",
            systems=_as_systems(walks)))
        disjoint = record.checks["disjoint"]
        assert disjoint["alpha"] and disjoint["beta"]
        resolved = [name for name in walks if not disjoint.get(name)]
        assert calls == [walks[name] for name in resolved]
        for name, ws in walks.items():
            ok, witness = stack_crossing_free(*resolve_every_disk(surf.scheme,
                                                                  ws))
            entry = record.checks["cut"]["systems"][name]
            assert entry["resolved"] == ok
            if not ok:
                assert name in resolved
                assert entry["crossing_at"] == witness[0]
                crossed.add(name)
    assert {"alpha:=beta", "duplicated", "alpha+beta"} <= set(resolved)
    assert crossed


def gf_dir():
    import pathlib
    return pathlib.Path(__file__).parent / "data"


def test_dot_export(s4_gem):
    cert = _forced(s4_gem, IDENT, s4_gem.edge_ids(4))
    d = assemble_diagram(s4_gem, IDENT, cert)
    dot = export_diagram(d, "dot").decode()
    assert dot.startswith("graph diagram {")
    assert dot.rstrip().endswith("}")
    assert "x0" in dot and "style=dashed" in dot
    assert "penwidth=2" in dot    # gamma runs over real edges


def test_svg_export_parses(datadir_gem):
    gf = datadir_gem("projective_plane_like.gem")
    certs = [minimize_k(gf.graph, e) for e in cyclic_permutations(4)]
    cert = min(certs, key=lambda c: c.sort_key())
    d = assemble_diagram(gf.graph, cert.eps, cert)
    root = ET.fromstring(export_diagram(d, "svg"))
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 3


def test_unknown_format_rejected(s4_gem):
    cert = minimize_k(s4_gem, IDENT)
    d = assemble_diagram(s4_gem, IDENT, cert)
    with pytest.raises(UnsupportedFormat):
        export_diagram(d, "png")


def _odd_gem():
    """Odd cycles in two colors; colors 3 and 4 double the color-0 edges."""
    edges = [(0, 1, 0), (2, 5, 0), (3, 4, 0),
             (1, 2, 1), (0, 3, 1), (4, 5, 1),
             (0, 2, 2), (1, 4, 2), (3, 5, 2)]
    edges += [(u, v, c) for (u, v, _) in edges[:3] for c in (3, 4)]
    return build_graph(4, edges)


def test_non_bipartite_gem_rejected():
    g = _odd_gem()
    fake = types.SimpleNamespace(eps=IDENT, genus=Fraction(1),
                                 ordering=CollapseOrdering((), (), ()))
    with pytest.raises(GemError, match="bipartite"):
        assemble_diagram(g, IDENT, fake)


def _face_multisets(faces):
    return sorted(sorted(h >> 1 for h in orbit) for orbit in faces)


def test_oriented_surface_matches_signed_builder(datadir_gem):
    """The oriented scheme is the signed one with class 1 read backwards.

    Each half-edge sits at its counterclockwise slot, and the faces (as
    edge multisets) and chi agree, on the pipeline corpus and on chain
    sums with seeded handles.
    """
    cases = [(g, IDENT, stabilization_set(g, IDENT))
             for g in pipeline_corpus(count=20)]
    rng = random.Random(7)
    for name in ("projective_plane_like.gem", "nonzero_forest.gem"):
        fixture = datadir_gem(name).graph
        for m in (1, 2, 4):
            g = _chain_sum(fixture, m)
            for eps in cyclic_permutations(4)[::4]:
                cases.append((g, eps, rng.sample(g.edge_ids(4),
                                                 rng.randrange(1, 4))))
    handles = 0
    for g, eps, stabilized in cases:
        surf = stabilized_surface(g, eps, stabilized)
        ref = signed_surface(g, eps, stabilized)
        scheme = surf.scheme
        assert scheme.edge_ends == ref.scheme.edge_ends
        assert scheme.pos_of == [ref.ccw[h] for h in range(len(scheme.pos_of))]
        assert (_face_multisets(surf.faces)
                == _face_multisets(ref.scheme.trace_faces()))
        assert surf.chi == ref.scheme.euler_characteristic()
        handles += surf.k
    assert handles >= 20

    assert signed_surface(_odd_gem(), IDENT, ()).ccw is None
    with pytest.raises(GemError, match="bipartite"):
        stabilized_surface(_odd_gem(), IDENT, ())


def _k_corpus():
    """(gem, order, certificate) with k > 0 throughout.

    Chain sums #1-#4 of nonzero_forest.gem with one to three seeded
    extra squares under seeded orders, and seeded welds of s1s3.gem
    at their sweep winners, whose k > 0 is the sweep's own, half of
    them with an extra square on top.
    """
    rng = random.Random(1016)
    orders = cyclic_permutations(4)
    cases = []
    nf = fixture_graph("nonzero_forest.gem")
    for m in (1, 2, 3, 4):
        g = _chain_sum(nf, m)
        for eps in rng.sample(orders, 2):
            spare = sorted(set(g.edge_ids(4)) - set(stabilization_set(g, eps)))
            extra = rng.sample(spare, rng.randrange(1, 4))
            cases.append((g, eps, _forced(g, eps, extra)))
    for i, g in enumerate(s1s3_welds(count=24, seed=1016, copies=(1, 6))):
        cert = sweep(g, orders)
        cases.append((g, cert.eps, cert))
        if i % 2:
            spare = sorted(set(g.edge_ids(4))
                           - set(cert.ordering.stabilized))
            extra = rng.sample(spare, 1) + list(cert.ordering.stabilized)
            cases.append((g, cert.eps, _forced(g, cert.eps, extra)))
    assert all(cert.k > 0 for _, _, cert in cases)
    return cases


def test_oriented_face_orbits_and_walks_match_references():
    # the faces are the orbits of the counterclockwise successor, and
    # as edge multisets those of trace_faces on the same scheme and on
    # the sign-reversing one; every curve's walk is the one the label
    # steps give, decoded back to the same steps and json bytes
    handles = 0
    for g, eps, cert in _k_corpus():
        d = assemble_diagram(g, eps, cert)
        assert d.record.ok, d.record.checks
        surf = d.surface
        scheme = surf.scheme
        rot, pos, vo = scheme.rot, scheme.pos_of, scheme.vertex_of
        assert sorted(h for orbit in surf.faces for h in orbit) == list(
            range(2 * len(scheme.edge_ends)))
        for orbit in surf.faces:
            assert orbit[0] == min(orbit)
            for h, nxt in zip(orbit, orbit[1:] + orbit[:1]):
                w = vo[h ^ 1]
                assert nxt == rot[w][(pos[h ^ 1] + 1) % len(rot[w])]
        traced = _face_multisets(scheme.trace_faces())
        assert _face_multisets(surf.faces) == traced
        assert traced == _face_multisets(
            signed_surface(g, eps, cert.ordering.stabilized)
            .scheme.trace_faces())

        Q = build_Q(g, eps)
        steps = reference.alpha_beta_curves(g, eps, cert) + (
            reference.gamma_step_curves(Q, cert),)
        both_ways = reference.gamma_curves(Q, cert)
        for mine, theirs in zip(d.systems(), steps):
            _, curves = mine
            assert [c.walk for c in curves] == [_to_walk(surf, c)
                                                for c in theirs]
            assert [(c.kind, c.steps, c.cycle_index) for c in curves] == [
                (c.kind, c.steps, c.cycle_index) for c in theirs]
        assert [c.steps for c in d.gamma] == [c.steps for c in both_ways]
        assert export_diagram(d, "json") == (json.dumps(
            reference.diagram_json_dict(d), sort_keys=True,
            separators=(",", ":")) + "\n").encode("ascii")
        handles += surf.k
    assert handles >= 120


def test_walks_that_start_no_step_are_refused(s4_gem):
    # a handle traversal split in half, or a meridian run backwards,
    # does not decode into label steps
    cert = _forced(s4_gem, IDENT, s4_gem.edge_ids(4))
    d = assemble_diagram(s4_gem, IDENT, cert)
    gamma, = d.gamma
    h = d.surface.handles[0]
    assert gamma.walk == (6, 2 * h.b + 1, 2 * h.a + 1)
    assert gamma.steps == (("e", 3, 1), ("h", 0, -1))
    for walk in ((6, 2 * h.b + 1), (2 * h.a + 1,), (2 * h.m + 1,),
                 (2 * h.b, 2 * h.a)):
        with pytest.raises(GemError, match="starts no step"):
            diagrams.Curve("gamma", walk, 0, gamma.base).steps


def test_certificate_eps_must_match(s4_gem):
    cert = minimize_k(s4_gem, IDENT)
    other = CyclicPermutation((0, 1, 3, 2, 4))
    with pytest.raises(GemError):
        assemble_diagram(s4_gem, other, cert)


# -- differential tests of the verifier's indexed pieces -------------------
#
# The references below are the straightforward versions the verifier
# replaced: a per-pair rescan of both walks for intersections and a
# tuple-keyed union-find for regions (the pairwise lane comparator is in
# reference.py).  The crossing rule is restated here on purpose, so a
# sign error in the verifier's one copy cannot cancel out of the
# comparison.

def _reference_intersection(surf, walk_a, walk_b, pos, deg_of):
    if not walk_a or not walk_b:
        return 0
    vo = surf.scheme.vertex_of
    by_vertex = {}
    for side, walk in ((0, walk_a), (1, walk_b)):
        for i, h in enumerate(walk):
            by_vertex.setdefault(vo[h], ([], []))[side].append(
                (walk[i - 1] ^ 1, h))
    total = 0
    for w, (ca, cb) in by_vertex.items():
        n = 3 * deg_of[w]

        def arc(x, lo, hi):
            return (x - lo) % n < (hi - lo) % n
        for ta, ha in ca:
            pa_t, pa_h = 3 * pos[ta], 3 * pos[ha]
            for tb, hb in cb:
                pb_t, pb_h = (3 * pos[tb] - 1) % n, (3 * pos[hb] + 1) % n
                if arc(pb_t, pa_t, pa_h) and arc(pb_h, pa_h, pa_t):
                    total += 1
                elif arc(pb_h, pa_t, pa_h) and arc(pb_t, pa_h, pa_t):
                    total -= 1
    return total


def _reference_components(surf, marks, chords_at, corridors):
    """Regions of the surface minus the resolved strands, by union-find.

    Atoms are vertex-disk boundary arcs, corridor gaps and faces; a
    chord joins the arcs flanking its ends, a corridor gap opens onto
    the arcs at its two mouths, and a face meets the arc at every
    corner it turns.
    """
    uf = {}

    def find(x):
        root = x
        while uf[root] != root:
            root = uf[root]
        while uf[x] != root:
            uf[x], x = root, uf[x]
        return root

    def union(x, y):
        uf.setdefault(x, x)
        uf.setdefault(y, y)
        rx, ry = find(x), find(y)
        if rx != ry:
            uf[rx] = ry

    scheme = surf.scheme
    pos = scheme.pos_of
    for v in range(scheme.nv):
        for i in range(max(len(marks[v]), 1)):
            uf.setdefault(("arc", v, i), ("arc", v, i))
    for e in range(len(scheme.edge_ends)):
        for t in range(len(corridors.get(e, ())) + 1):
            uf.setdefault(("gap", e, t), ("gap", e, t))
    for fi in range(len(surf.faces)):
        uf.setdefault(("face", fi), ("face", fi))
    for v, chords in chords_at.items():
        r = len(marks[v])
        for a, b in chords:
            union(("arc", v, a), ("arc", v, (b - 1) % r))
            union(("arc", v, (a - 1) % r), ("arc", v, b))

    def arc_after(v, slot_coord):
        mk = marks[v]
        if not mk:
            return ("arc", v, 0)
        j = bisect_right(mk, (slot_coord, float("inf"), ()))
        return ("arc", v, (j - 1) % len(mk))

    vo = scheme.vertex_of
    for e in range(len(scheme.edge_ends)):
        m = len(corridors.get(e, ()))
        for end in (0, 1):
            h = 2 * e + end
            v, slot = vo[h], pos[h]
            if m == 0:
                union(("gap", e, 0), arc_after(v, slot))
                continue
            ports = sorted((micro, idx) for idx, (s, micro, _) in
                           enumerate(marks[v]) if s == slot)
            for t in range(m + 1):
                gap = t if end == 0 else m - t
                if t == 0:
                    arc = (ports[0][1] - 1) % len(marks[v])
                else:
                    arc = ports[t - 1][1]
                union(("gap", e, gap), ("arc", v, arc))
    for fi, orbit in enumerate(surf.faces):
        for i, h in enumerate(orbit):
            h_next = orbit[(i + 1) % len(orbit)]
            w = vo[h_next]
            deg = len(scheme.rot[w])
            pt, ph = pos[h ^ 1], pos[h_next]
            corner = pt if (pt + 1) % deg == ph else ph
            union(("face", fi), arc_after(w, corner + 0.5))
    return len({find(x) for x in uf})


def _lanes_by_place(scheme, walks, corridors):
    """Each corridor's traversals from the lowest lane up, by the strand
    order of all strands."""
    place = reference.strand_order(scheme, walks)
    first = [0]
    for walk in walks:
        first.append(first[-1] + len(walk))
    return {e: sorted(travs, key=lambda tr: place[first[tr[0]] + tr[1]])
            for e, travs in corridors.items()}


def _named_lanes(scheme, walks):
    """The corridors run twice or more, each with its traversals from
    the lowest lane up by _lanes, named (walk, step, down) as
    corridor_map names them; every corridor's lanes count up from 0."""
    flat = [h for walk in walks for h in walk]
    pos = scheme.pos_of
    lane = _lanes(walks, flat, [pos[h] for h in flat],
                  [pos[h ^ 1] for h in flat], max(map(len, scheme.rot)))
    named = [(wi, i, h & 1) for wi, walk in enumerate(walks)
             for i, h in enumerate(walk)]
    corridors = {}
    for t, h in enumerate(flat):
        corridors.setdefault(h >> 1, []).append(t)
    out = {}
    for e, travs in corridors.items():
        assert sorted(lane[t] for t in travs) == list(range(len(travs)))
        if len(travs) > 1:
            out[e] = [named[t] for t in sorted(travs, key=lane.__getitem__)]
    return out


def _shared(lanes):
    """The corridors of a lane map that hold two traversals or more."""
    return {e: travs for e, travs in lanes.items() if len(travs) > 1}


def _chain_sum(fixture, m):
    """#m copies welded in a chain, vertex 1 of a copy to 0 of the next."""
    g, weld = fixture, 1
    for _ in range(1, m):
        g = connected_sum(g, fixture, weld, 0)
        weld = g.nv - (fixture.nv - 1)
    return g


def _verifier_corpus(datadir_gem):
    """(surface, {system: walks}) for chain sums with seeded extra squares.

    Besides the three systems of each diagram, mutated ones: alpha
    replaced by beta, a duplicated curve, a reversed curve, a dropped
    curve (Z/2 rank below the genus), the alpha and beta curves together
    as one system, and alpha plus the boundary of the surface's longest
    face (a null-homologous curve).
    """
    rng = random.Random(5)
    out = []
    for name in ("projective_plane_like.gem", "nonzero_forest.gem"):
        fixture = datadir_gem(name).graph
        for m in range(2, 7):
            g = _chain_sum(fixture, m)
            spare = sorted(set(g.edge_ids(4))
                           - set(stabilization_set(g, IDENT)))
            extra = rng.sample(spare, rng.randrange(0, 3))
            d = assemble_diagram(g, IDENT, _forced(g, IDENT, extra))
            assert d.record.ok, (name, m, extra)
            surf = d.surface
            walks = {sys_name: [c.walk for c in curves]
                     for sys_name, curves in d.systems()}
            a = walks["alpha"]
            walks.update({
                "alpha:=beta": list(walks["beta"]),
                "duplicated": a + a[:1],
                "reversed": [[h ^ 1 for h in reversed(a[0])]] + a[1:],
                "dropped": a[1:],
                "alpha+beta": a + walks["beta"],
                "alpha+face": a + [tuple(max(surf.faces, key=len))],
            })
            out.append((surf, walks))
    return out


def test_indexed_intersections_match_pairwise(datadir_gem):
    for surf, walks in _verifier_corpus(datadir_gem):
        scheme = surf.scheme
        pos = scheme.pos_of
        deg_of = [len(r) for r in scheme.rot]
        rows = {k: _chord_table(scheme, ws)[0] for k, ws in walks.items()}
        for ka, wa in walks.items():
            selfs = _self_crossings(scheme.rot, rows[ka], len(wa))
            assert selfs == [_reference_intersection(surf, w, w, pos, deg_of)
                             for w in wa]
            for kb in dict.fromkeys(("alpha", "beta", "gamma", ka)):
                wb = walks[kb]
                cols = _pairing(scheme.rot, rows[ka], rows[kb], len(wb))
                for j, w_j in enumerate(wb):
                    assert all(cols[j].values())
                    for i, w_i in enumerate(wa):
                        ref = _reference_intersection(surf, w_i, w_j, pos,
                                                      deg_of)
                        assert cols[j].get(i, 0) == ref, (ka, kb, i, j)
                        assert _signed_intersection(scheme, w_i, w_j) == ref


def test_region_count_and_lanes_match_references(datadir_gem):
    corpus = _verifier_corpus(datadir_gem)
    # verify_diagram runs on the corpus walks as they are, so its cut
    # entries can be compared system by system
    seen = set()
    split = []
    for surf, walks in corpus:
        scheme = surf.scheme
        record = verify_diagram(types.SimpleNamespace(
            surface=surf, genus=(2 - surf.chi) // 2, mode="trisection",
            systems=_as_systems(walks)))
        for name, ws in walks.items():
            entry = record.checks["cut"]["systems"][name]
            corridors = corridor_map(ws)
            by_place = _lanes_by_place(scheme, ws, corridors)
            assert by_place == lane_orders(scheme, ws, corridors)
            assert _named_lanes(scheme, ws) == _shared(by_place)
            marks, chords = resolve_every_disk(scheme, ws)
            resolved, witness = stack_crossing_free(marks, chords)
            ref_resolved, ref_witness = _reference_crossing_free(marks,
                                                                 chords)
            assert resolved == ref_resolved == entry["resolved"]
            if name == "duplicated":
                # two copies of one curve push apart on every surface
                assert resolved and entry["pieces"] == 2
                assert entry["connected"] is False
            if not resolved:
                # same first failing vertex, and the pair reported there
                # interleaves by the pairwise rule
                v, x, y = witness
                assert v == ref_witness[0] == entry["crossing_at"]
                assert not _reference_crossing_free(marks, {v: [x, y]})[0]
                seen.add("unresolved")
                continue
            pieces = _reference_components(surf, marks, chords, corridors)
            assert entry["pieces"] == pieces, name
            assert entry["connected"] == (pieces == 1)
            assert entry["chi_capped"] == surf.chi + 2 * len(ws)
            seen.add("split" if pieces > 1 else "connected")
            if pieces > 1:
                split.append(name)
    assert seen == {"unresolved", "split", "connected"}
    assert {"duplicated", "alpha+face"} <= set(split)


def _random_weld_systems(datadir_gem):
    """(scheme, walks) of every system of seeded random-weld sums."""
    rng = random.Random(29)
    out = []
    for name in ("projective_plane_like.gem", "nonzero_forest.gem"):
        fixture = datadir_gem(name).graph
        for m in (3, 4, 5, 6) * 6:
            g = fixture
            for _ in range(1, m):
                g = weld(g, fixture, rng)
            spare = sorted(set(g.edge_ids(4))
                           - set(stabilization_set(g, IDENT)))
            extra = rng.sample(spare, rng.randrange(0, 3))
            d = assemble_diagram(g, IDENT, _forced(g, IDENT, extra))
            assert d.record.ok, (name, m, extra)
            out += ((d.surface.scheme, [c.walk for c in cs])
                    for _, cs in d.systems())
    return out


def test_strand_order_matches_comparator_on_random_welds(datadir_gem):
    """Seeded random-weld sums verify, with the comparator's lanes."""
    systems = _random_weld_systems(datadir_gem)
    for scheme, ws in systems:
        assert _named_lanes(scheme, ws) == _shared(
            lane_orders(scheme, ws, corridor_map(ws)))
    assert len(systems) == 144


def _long_gamma_systems():
    """(scheme, gamma walks) of the swept #14 random-weld sums of seeds 3
    and 9, whose longest walks have 1,738 and 2,394 half-edges."""
    out = []
    for seed, longest, steps in ((3, 1738, 4772), (9, 2394, 5404)):
        g = _weld_sum(seed)
        cert = sweep(g, cyclic_permutations(4))
        d = assemble_diagram(g, cert.eps, cert)
        ws = [c.walk for c in d.gamma]
        assert (max(map(len, ws)), sum(map(len, ws))) == (longest, steps)
        out.append((d.surface.scheme, ws))
    return out


def test_corridor_lanes_match_single_symbol_doubling(datadir_gem):
    # every system of the verifier corpus (mutants included) and of the
    # random welds, an empty system (a genus-0 gem has no curves), and
    # the gamma systems of two #14 sums, whose corridors hold strands of
    # walks up to 2,394 long: each shared corridor's lanes are its
    # strands in the order of all strands ranked by prefix doubling
    systems = [(surf.scheme, ws) for surf, walks in
               _verifier_corpus(datadir_gem) for ws in walks.values()]
    systems += _random_weld_systems(datadir_gem)
    systems.append((systems[0][0], []))
    systems += _long_gamma_systems()
    shared = 0
    for scheme, ws in systems:
        lanes = _named_lanes(scheme, ws)
        assert lanes == _shared(_lanes_by_place(scheme, ws, corridor_map(ws)))
        shared += len(lanes)
    assert shared >= 900


def test_lanes_read_as_many_turns_as_fine_and_wilf_needs():
    # upward strands of walks of lengths 7 and 5 through corridor 0,
    # whose turn strings v and u agree on 10 = 7 + 5 - 2 turns and then
    # differ: the strand of the shorter walk goes lower though its
    # traversal comes later, which slices 7 turns long would miss
    v, u = (0, 1, 0, 1, 0, 0, 1), (0, 1, 0, 1, 0)
    walks = [(0, 2, 4, 6, 8, 10, 12), (0, 14, 16, 18, 20)]
    # every step arrives at slot 0, so the turn after step i is the slot
    # step i + 1 leaves by
    leave = [v[i - 1] for i in range(7)] + [u[i - 1] for i in range(5)]
    lane = _lanes(walks, walks[0] + walks[1], leave, [0] * 12, 2)
    assert lane == [1] + [0] * 11


def test_disjoint_systems_and_shared_face_basis(datadir_gem):
    # a vertex-simple, vertex-disjoint system has no self-intersection,
    # so verify_diagram computes none for it; each system's rank, read
    # off a pairing or reduced against one copy of the eliminated face
    # vectors, is what it adds to those vectors
    corpus = _verifier_corpus(datadir_gem)
    disjoint = 0
    for surf, walks in corpus:
        scheme = surf.scheme
        record = verify_diagram(types.SimpleNamespace(
            surface=surf, genus=(2 - surf.chi) // 2, mode="trisection",
            systems=_as_systems(walks)))
        face_vecs = [_edge_vector(orbit) for orbit in surf.faces]
        base_rank = _gf2_extend({}, face_vecs)
        all_zero = True
        for name, ws in walks.items():
            selfs = _self_crossings(scheme.rot, _chord_table(scheme, ws)[0],
                                    len(ws))
            seen = [scheme.vertex_of[h] for h in itertools.chain(*ws)]
            if len(set(seen)) == len(seen):
                assert not any(selfs), name
                disjoint += 1
            all_zero &= not any(selfs)
            vecs = [_edge_vector(w) for w in ws]
            assert record.checks["z2"]["ranks"][name] == (
                _gf2_extend({}, face_vecs + vecs) - base_rank)
        assert record.checks["z2"]["self_zero"] == all_zero
    assert disjoint >= 20


def _eliminated_record(diagram, monkeypatch):
    """The record with every system's Z/2 rank eliminated against the
    face basis, none read off a pairing."""
    with monkeypatch.context() as m:
        m.setattr(diagrams, "_ranks_from_pairings", lambda *args: {})
        return verify_diagram(diagram).as_dict()


def test_ranks_from_pairings_keep_the_record(datadir_gem, monkeypatch):
    # the pipeline corpus, chain sums and forced-handle diagrams, whose
    # pairings settle all three ranks, and every verifier mutant put in
    # place of alpha or of gamma, plus an alpha whose first curve runs
    # twice: null mod 2, so its rows of both pairings are even
    cases = []
    for d in _diagram_corpus(datadir_gem):
        walks = {name: [c.walk for c in curves]
                 for name, curves in d.systems()}
        cases.append((d.surface, walks, True))
    for surf, walks in _verifier_corpus(datadir_gem):
        a = walks["alpha"]
        mutants = {name: ws for name, ws in walks.items()
                   if name not in ("alpha", "beta", "gamma")}
        mutants["doubled"] = [list(a[0]) * 2] + a[1:]
        for ws in mutants.values():
            cases.append((surf, dict(walks, alpha=ws), False))
            cases.append((surf, dict(walks, gamma=ws), False))
    forcing = diagrams._ranks_from_pairings
    settled = []

    def recording(counts, genus, cokernels):
        out = forcing(counts, genus, cokernels)
        settled.append(out)
        return out

    monkeypatch.setattr(diagrams, "_ranks_from_pairings", recording)
    unsettled = 0
    for surf, walks, real in cases:
        systems = {name: walks[name] for name in ("alpha", "beta", "gamma")}
        d = types.SimpleNamespace(surface=surf, genus=(2 - surf.chi) // 2,
                                  mode="trisection",
                                  systems=_as_systems(systems))
        record = verify_diagram(d).as_dict()
        assert record == _eliminated_record(d, monkeypatch)
        forced = settled[-1]
        if real:
            assert sorted(forced) == ["alpha", "beta", "gamma"]
        # a system of g curves whose pairings are all singular mod 2
        unsettled += any(len(ws) == d.genus and name not in forced
                         for name, ws in systems.items())
    assert len(cases) > 150 and unsettled >= 10


def test_corrupted_chord_slots_flip_self_zero(datadir_gem, monkeypatch):
    # every self-intersection of a closed walk on the oriented surface
    # is 0, so self_zero can fail only through a wrong chord table: a
    # chord with its slots swapped, of a gamma walk that meets its
    # vertex more than once, flips it
    g = _chain_sum(datadir_gem("projective_plane_like.gem").graph, 3)
    cert = sweep(g, cyclic_permutations(4))
    d = assemble_diagram(g, cert.eps, cert)
    assert d.record.ok and d.record.checks["z2"]["self_zero"]
    chord_table = diagrams._chord_table
    gamma = [c.walk for c in d.gamma]

    def corrupted(scheme, walks):
        rows, disjoint = chord_table(scheme, walks)
        if walks == gamma:
            # at the lowest disk where a curve has two chords, the first
            # chord of the curve whose chords there are least
            v, _, ci = min(
                (v, [c[1:] for c in row if c[0] == ci], ci)
                for v, row in enumerate(rows) for ci in {c[0] for c in row}
                if sum(c[0] == ci for c in row) > 1)
            k = next(k for k, c in enumerate(rows[v]) if c[0] == ci)
            _, t, h = rows[v][k]
            rows[v][k] = (ci, h, t)
        return rows, disjoint

    monkeypatch.setattr(diagrams, "_chord_table", corrupted)
    record = verify_diagram(d)
    assert not record.ok and not record.checks["z2"]["self_zero"]


def _weld_corpus(datadir_gem):
    """(surface, {system: walks}) of seeded random-weld sums of both
    closed fixtures, with seeded extra squares (k > 0 on most), and of
    the swept s1s3_welds, whose sweep stabilizes squares of its own."""
    rng = random.Random(31)
    diagrams_ = []
    for name in ("projective_plane_like.gem", "nonzero_forest.gem"):
        fixture = datadir_gem(name).graph
        for m in (2, 3, 4, 5) * 2:
            g = fixture
            for _ in range(1, m):
                g = weld(g, fixture, rng)
            eps = rng.choice(cyclic_permutations(4))
            spare = sorted(set(g.edge_ids(4))
                           - set(stabilization_set(g, eps)))
            extra = rng.sample(spare, rng.randrange(1, 3))
            diagrams_.append(assemble_diagram(g, eps, _forced(g, eps, extra)))
    for g in s1s3_welds(count=6, seed=31):
        cert = sweep(g, cyclic_permutations(4))
        diagrams_.append(assemble_diagram(g, cert.eps, cert))
    assert all(d.record.ok for d in diagrams_)
    assert sum(d.surface.k > 0 for d in diagrams_) >= 16
    return [(d.surface, {name: [c.walk for c in curves]
                         for name, curves in d.systems()})
            for d in diagrams_]


def _outcome(check, *args):
    """The GemError message check raises on args, or None."""
    try:
        check(*args)
    except GemError as exc:
        return str(exc)
    return None


def test_chord_table_matches_reference_oracles(datadir_gem):
    # the table's rows regroup into the per-curve chord index, its flag
    # is the vertex-disjointness test, and its pairing columns and
    # self-intersections are the index's; corrupted walks fail in the
    # same walk with the same message as the walk-by-walk checks
    rng = random.Random(37)
    corpus = _verifier_corpus(datadir_gem) + _weld_corpus(datadir_gem)
    refused = set()
    for surf, walks in corpus:
        scheme = surf.scheme
        rows, index = {}, {}
        for name, ws in walks.items():
            rows[name], disjoint = _chord_table(scheme, ws)
            assert disjoint == reference.vertex_disjoint(scheme, ws)
            index[name] = reference._chord_index(scheme, ws)
            assert {v: [(ci, [c[1:] for c in chords]) for ci, chords in
                        itertools.groupby(row, key=lambda c: c[0])]
                    for v, row in enumerate(rows[name]) if row} == index[name]
            assert (_self_crossings(scheme.rot, rows[name], len(ws))
                    == reference._self_intersections(scheme, index[name],
                                                     len(ws)))
        for (ka, wa), (kb, wb) in itertools.product(walks.items(),
                                                    repeat=2):
            assert (_pairing(scheme.rot, rows[ka], rows[kb], len(wb))
                    == reference._intersection_columns(
                        scheme, index[ka], index[kb], len(wb))), (ka, kb)
        # two corruptions in distinct walks: out-of-range ids -1, -2 and
        # 2E + 5 (E the scheme's edges), or a dropped half-edge
        outside = (-1, -2, len(scheme.vertex_of) + 5)
        for name, ws in walks.items():
            if len(ws) < 2:
                continue
            bad = [list(w) for w in ws]
            for j in rng.sample(range(len(ws)), 2):
                i = rng.randrange(len(bad[j]) + 1)
                if rng.random() < 0.5 and len(bad[j]) > 1:
                    del bad[j][i % len(bad[j])]
                else:
                    bad[j].insert(i, rng.choice(outside))
            want = _outcome(reference.check_walks, scheme, bad)
            assert _outcome(_chord_table, scheme, bad) == want
            if want and want.startswith("curve walk names half-edge "):
                h = int(want.split()[4].rstrip(","))
                want = h if h < 0 else h - len(scheme.vertex_of)
            refused.add(want)
    assert refused >= {"curve walk does not close up", -1, -2, 5}


def test_busy_disk_resolution_matches_every_disk(datadir_gem):
    # the cut test reads only disks with two chords or more and ranks
    # only the strands of shared corridors; its verdict, failing disk and
    # witness chords are those of the stack pass over a resolution that
    # places marks at every disk by the order of all strands, and the
    # pairwise test agrees on the verdict and the disk.  Systems: the
    # verifier corpus with every mutant, the weld corpus with each pair
    # of systems run as one (they cross on most surfaces), the random
    # welds and the long gamma systems
    systems = []
    for surf, walks in _verifier_corpus(datadir_gem) + _weld_corpus(
            datadir_gem):
        named = dict(walks)
        for a, b in itertools.combinations(("alpha", "beta", "gamma"), 2):
            named[a + "|" + b] = walks[a] + walks[b]
        systems += ((surf.scheme, ws) for ws in named.values())
    systems += _random_weld_systems(datadir_gem)
    systems += _long_gamma_systems()
    failing = 0
    for scheme, ws in systems:
        got = _cut_test(scheme, ws, _chord_table(scheme, ws)[0])
        marks, chords = resolve_every_disk(scheme, ws)
        assert got == stack_crossing_free(marks, chords)
        ok, witness = _reference_crossing_free(marks, chords)
        assert got[0] == ok
        if not ok:
            v, x, y = got[1]
            assert v == witness[0]
            assert not _reference_crossing_free(marks, {v: [x, y]})[0]
            failing += 1
    assert failing >= 60


def test_verify_refuses_half_edges_outside_the_surface(datadir_gem):
    # a gamma walk naming half-edge -1, -2 or 2E + 5 (E the scheme's
    # edges) is refused before any vertex is looked up
    g = datadir_gem("pp_sum3.gem").graph
    cert = sweep(g, cyclic_permutations(4))
    d = assemble_diagram(g, cert.eps, cert)
    assert d.record.ok
    top = len(d.surface.scheme.vertex_of) - 1
    for bad in (-1, -2, top + 1 + 5):
        walk = d.gamma[0].walk
        gamma = (diagrams.Curve("gamma", walk[:1] + (bad,) + walk[1:],
                                None, d.gamma[0].base),) + d.gamma[1:]
        broken = TrisectionDiagram(d.surface, d.alpha, d.beta, gamma,
                                   d.genus, d.mode)
        with pytest.raises(GemError) as info:
            verify_diagram(broken)
        assert str(info.value) == (
            "curve walk names half-edge %d, outside 0..%d" % (bad, top))


@pytest.mark.slow
def test_random_weld_sums_verify_and_sweep_like_the_loop(datadir_gem):
    """Seeded fuzz: random-weld sums #3-#8 of both fixtures.

    Each sum's sweep must equal the per-order loop, and its winner's
    diagram and a diagram with random extra stabilized squares under a
    random order must verify.  Kept out of the default run: its 1000
    cases take about 25 s on one core of a 2-CPU virtual machine.
    """
    rng = random.Random(4434)
    orders = cyclic_permutations(4)
    fixtures = [datadir_gem(name).graph
                for name in ("projective_plane_like.gem", "nonzero_forest.gem")]
    for case in range(1000):
        fixture = rng.choice(fixtures)
        g = fixture
        for _ in range(1, rng.randrange(3, 9)):
            g = weld(g, fixture, rng)
        budget = rng.choice((0, 10))
        cert = sweep(g, orders, budget)
        assert cert.as_dict() == reference.sweep(g, orders, budget).as_dict()
        eps = rng.choice(orders)
        spare = sorted(set(g.edge_ids(4)) - set(stabilization_set(g, eps)))
        extra = rng.sample(spare, rng.randrange(0, min(4, len(spare) + 1)))
        for c in (cert, _forced(g, eps, extra)):
            d = assemble_diagram(g, c.eps, c)
            assert d.record.ok, (case, c.as_dict(), d.record.checks)


# -- short gamma curves against the lowest-index rules ----------------------

def _weld_sum(seed, copies=14):
    """Random-weld sum of `copies` copies of projective_plane_like.gem."""
    rng = random.Random(seed)
    fixture = g = fixture_graph("projective_plane_like.gem")
    for _ in range(1, copies):
        g = weld(g, fixture, rng)
    return g


def _check_against_lowest_index_rules(g, monkeypatch):
    """Run g with the size rules and with the lowest-index ones.

    Exit code, k, genus and the collapse order must agree, the ordering
    must verify, the diagram must verify, and no square may expand to
    more steps than under the lowest-index witness.
    """
    new, _ = run_pipeline(GemFile(4, None, {}, g))
    with monkeypatch.context() as m:
        m.setattr(trisection, "collapse_schedule",
                  reference.collapse_schedule)
        m.setattr(diagrams, "_gamma_forest", reference.gamma_forest)
        old, _ = run_pipeline(GemFile(4, None, {}, build_graph(g.n, g.edges)))
    new, old = new.as_dict(), old.as_dict()
    assert new["exit_code"] == old["exit_code"] == 0, new["error"]
    assert new["diagram_ref"]["verified"] is True
    cert, old_cert = new["certificate"], old["certificate"]
    for key in ("eps", "k", "genus", "stabilized", "collapsed"):
        assert cert[key] == old_cert[key], key
    Q = build_Q(g, CyclicPermutation(tuple(cert["eps"])))
    ordering = collapse_schedule(Q, cert["stabilized"])
    assert [list(w) for w in ordering.witnesses] == cert["witnesses"]
    assert verify_ordering(Q, ordering) == (True, None)
    size = reference.square_sizes(Q, ordering)
    old_size = reference.square_sizes(
        Q, reference.collapse_schedule(Q, cert["stabilized"]))
    assert all(size[e] <= old_size[e] for e in Q.squares)
    # the running sums equal the sizes walked off the cycles' steps
    assert cycle_sizes(Q, ordering) == [
        sum(size[eid] if g.edges[eid][2] == 4 else 1
            for eid, _ in reference.cycle_steps(edge.cycle))
        for edge in Q.q1_edges]
    return sum(old_size.values()) - sum(size.values())


def test_size_rules_keep_answers_of_lowest_index_rules(monkeypatch):
    gems = pipeline_corpus()
    for name in ("projective_plane_like.gem", "nonzero_forest.gem"):
        fixture = fixture_graph(name)
        gems += [_chain_sum(fixture, m) for m in range(1, 9)]
    saved = [_check_against_lowest_index_rules(g, monkeypatch) for g in gems]
    # the chain sums of projective_plane_like.gem have shorter choices
    assert sum(x > 0 for x in saved) >= 7


@pytest.mark.slow
def test_size_rules_keep_answers_on_weld_seeds(monkeypatch):
    """Weld seeds 0-31 (#14 random-weld sums) under both rule sets.

    Kept out of the default run: its 64 pipeline runs take about 16 s
    on one core of a 2-CPU virtual machine, most of it the
    lowest-index rules' diagrams of seeds 3 and 9.
    """
    saved = [_check_against_lowest_index_rules(_weld_sum(seed), monkeypatch)
             for seed in range(32)]
    assert sum(x > 0 for x in saved) >= 16


def test_gamma_lengths_stay_short():
    # gamma steps at the default sweep: 28,152 and 52,080 on weld seeds
    # 3 and 9, and 10,404 on the #128 chain sum, under the lowest-index
    # rules
    cases = [(_weld_sum(3), 8000), (_weld_sum(9), 8000),
             (_chain_sum(fixture_graph("projective_plane_like.gem"), 128),
              2500)]
    for g, bound in cases:
        cert = sweep(g, cyclic_permutations(4))
        d = assemble_diagram(g, cert.eps, cert)
        assert d.record.ok
        assert sum(len(c) for c in d.gamma) <= bound


def test_beta_as_gamma_fails_the_cokernel_check(datadir_gem):
    g = _chain_sum(datadir_gem("projective_plane_like.gem").graph, 3)
    cert = sweep(g, cyclic_permutations(4))
    d = assemble_diagram(g, cert.eps, cert)
    gcok = d.record.checks["gamma_cokernels"]
    assert d.record.ok and gcok["chi"] == gcok["chi_diagram"] == 5
    mutant = _mutate(d, gamma=d.beta)
    gcok = mutant.record.checks["gamma_cokernels"]
    assert not mutant.record.ok and not gcok["pass"]
    assert gcok["chi"] == 5 and gcok["chi_diagram"] != 5
    # bounded mode records the ranks unchecked
    bounded = TrisectionDiagram(d.surface, d.alpha, d.beta, d.beta,
                                d.genus, "g-trisection")
    gcok = verify_diagram(bounded).checks["gamma_cokernels"]
    assert gcok["pass"] and "chi" not in gcok


@pytest.mark.slow
def test_random_weld_diagrams_pass_the_cokernel_check():
    """Seeded fuzz: random-weld sums #2-#14 of both closed fixtures.

    Every winner's diagram must verify, the chi identity included, with
    chi equal to the chain complex's, and its vertex-disjoint alpha and
    beta systems must resolve crossing-free.  Kept out of the default
    run: its 1000 gems take about 15 s on one core of a 2-CPU virtual
    machine.
    """
    rng = random.Random(2018)
    orders = cyclic_permutations(4)
    fixtures = [fixture_graph(name) for name in
                ("projective_plane_like.gem", "nonzero_forest.gem")]
    for case in range(1000):
        fixture = g = rng.choice(fixtures)
        for _ in range(1, rng.randrange(2, 15)):
            g = weld(g, fixture, rng)
        cert = sweep(g, orders)
        d = assemble_diagram(g, cert.eps, cert)
        assert d.record.ok, (case, d.record.checks["gamma_cokernels"])
        gcok = d.record.checks["gamma_cokernels"]
        assert gcok["chi"] == chain_complex(g).euler_characteristic()
        # alpha and beta pass the disjointness check, so the verifier
        # took them as crossing-free without resolving them
        for name in ("alpha", "beta"):
            assert d.record.checks["disjoint"][name]
            ws = [c.walk for c in getattr(d, name)]
            assert stack_crossing_free(*resolve_every_disk(
                d.surface.scheme, ws)) == (True, None)


def _old_reduce(items, inverse, keep=lambda s: True):
    """The walk reductions before cyclic trimming worked by index."""
    out = []
    for s in items:
        if out and keep(s) and out[-1] == inverse(s):
            out.pop()
        else:
            out.append(s)
    while len(out) >= 2 and keep(out[0]) and out[-1] == inverse(out[0]):
        out.pop()
        out.pop(0)
    return out


def test_cyclic_reduction_matches_pop_loop():
    # one free reduction serves half-edge walks, surface steps (a
    # meridian step has no inverse) and relator words
    rng = random.Random(11)
    for _ in range(300):
        core = [rng.randrange(12) for _ in range(rng.randrange(0, 8))]
        wrap = [rng.randrange(12) for _ in range(rng.randrange(0, 6))]
        walk = wrap + core + [h ^ 1 for h in reversed(wrap)]
        assert _free_reduce(walk, lambda h: h ^ 1) == tuple(
            _old_reduce(walk, lambda h: h ^ 1))

        kinds = [("e", rng.randrange(4), rng.choice((1, -1))) if
                 rng.random() < 0.8 else ("sc", rng.randrange(2))
                 for _ in range(len(core) + len(wrap))]
        head = kinds[:len(wrap)]
        steps = (head + kinds[len(wrap):]
                 + [s if s[0] == "sc" else (s[0], s[1], -s[2])
                    for s in reversed(head)])
        assert _free_reduce(steps, reference._step_inverse) == tuple(
            _old_reduce(steps,
                        lambda s: s if s[0] == "sc" else (s[0], s[1], -s[2]),
                        keep=lambda s: s[0] != "sc"))

        letters = [rng.choice((1, -1)) * rng.randrange(1, 4)
                   for _ in range(len(core) + len(wrap))]
        word = letters + [-x for x in reversed(letters[:len(wrap)])]
        assert _free_reduce(word) == tuple(_old_reduce(word, lambda x: -x))


@pytest.mark.slow
def test_no_gem_found_where_the_pi1_route_fires_and_tietze_stalls(
        monkeypatch):
    """Seeded search: random welds #1-#14 of both closed fixtures, half of
    them grown further by blobs and sphere sums.

    Wherever a verified closed diagram proves pi1 = 1, Tietze moves on a
    fresh copy of the gem must leave no generator: a gem where they stall
    would read rk_upper 0 from the theorem but more from the built
    presentation.  Kept out of the default run: its 2000 gems take about
    20 s on one core of a 2-CPU virtual machine.
    """
    from conftest import grow_gem
    from gemtrisect import cli, homology

    prove = cli.prove_pi1_trivial
    fired = []
    monkeypatch.setattr(cli, "prove_pi1_trivial",
                        lambda d: prove(d) and not fired.append(d))
    rng = random.Random(2016)
    fixtures = [fixture_graph(name) for name in
                ("projective_plane_like.gem", "nonzero_forest.gem")]
    stalled = []
    for case in range(2000):
        g = rng.choice(fixtures)
        for _ in range(rng.randrange(0, 14)):
            g = weld(g, rng.choice(fixtures), rng)
        if rng.random() < 0.5:
            g = grow_gem(g, rng.randrange(1, 12), rng, colors=(0, 1, 2, 3))
        fired.clear()
        rec, _ = run_pipeline(GemFile(4, None, {}, g))
        assert rec.exit_code == 0 and fired, case
        fresh = build_graph(g.n, g.edges)
        if homology._build_pi1(fresh).num_generators:
            stalled.append(case)
    assert stalled == []
