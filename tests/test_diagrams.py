"""Curve systems, surface resolution checks, and diagram export."""

import json
import types
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from gemtrisect.diagrams import (
    CountMismatch,
    ExpansionDiverged,
    TrisectionDiagram,
    UnsupportedFormat,
    _ccw_rotations,
    _signed_intersection,
    _to_walk,
    alpha_beta_curves,
    assemble_diagram,
    diagram_json_dict,
    export_diagram,
    gamma_curves,
    verify_diagram,
    wall_graphs,
)
from gemtrisect.embedding import CyclicPermutation, cyclic_permutations
from gemtrisect.graphs import GemError, build_graph, standard_sphere_gem
from gemtrisect.trisection import (
    CollapseOrdering,
    build_Q,
    certificate,
    collapse_schedule,
    minimize_k,
    stabilization_set,
)

from conftest import pipeline_corpus

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


def test_wall_graphs_sphere(s4_gem):
    k02, k13 = wall_graphs(s4_gem, IDENT)
    for wg, cyc_colors in ((k02, {1, 3}), (k13, {0, 2})):
        assert wg.cycle_colors == frozenset(cyc_colors)
        assert len(wg.nodes) == 2
        assert len(wg.cycles) == 1
        assert wg.forest == (0,)   # the lone cycle joins the two walls


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
    fake = types.SimpleNamespace(apex=4, k=0, genus=Fraction(3))
    with pytest.raises(CountMismatch):
        alpha_beta_curves(s4_gem, IDENT, fake)
    fake_half = types.SimpleNamespace(apex=4, k=0, genus=Fraction(1, 2))
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


def test_gamma_requires_distinct_witnesses(s4_gem):
    Q = build_Q(s4_gem, IDENT)
    sq = Q.squares[0]
    ordering = CollapseOrdering((), (sq, sq), ((0, 0), (0, 0)))
    with pytest.raises(GemError):
        gamma_curves(Q, types.SimpleNamespace(ordering=ordering))


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
    pos = _ccw_rotations(surf)
    deg_of = [len(r) for r in surf.scheme.rot]
    walks = [_to_walk(surf, c)
             for _, curves in d.systems() for c in curves]
    assert len(walks) >= 6
    for wa in walks:
        assert _signed_intersection(surf, wa, wa, pos, deg_of) == 0
        for wb in walks:
            ab = _signed_intersection(surf, wa, wb, pos, deg_of)
            ba = _signed_intersection(surf, wb, wa, pos, deg_of)
            assert ab == -ba


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


def test_non_bipartite_gem_rejected():
    # odd cycles in two colors; colors 3 and 4 double the color-0 edges
    edges = [(0, 1, 0), (2, 5, 0), (3, 4, 0),
             (1, 2, 1), (0, 3, 1), (4, 5, 1),
             (0, 2, 2), (1, 4, 2), (3, 5, 2)]
    edges += [(u, v, c) for (u, v, _) in edges[:3] for c in (3, 4)]
    g = build_graph(4, edges)
    fake = types.SimpleNamespace(eps=IDENT)
    with pytest.raises(GemError):
        assemble_diagram(g, IDENT, fake)


def test_certificate_eps_must_match(s4_gem):
    cert = minimize_k(s4_gem, IDENT)
    other = CyclicPermutation((0, 1, 3, 2, 4))
    with pytest.raises(GemError):
        assemble_diagram(s4_gem, other, cert)
