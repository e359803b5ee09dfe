"""Square complex construction, collapse scheduling, and certificates."""

import random
from fractions import Fraction

import pytest

from gemtrisect.embedding import CyclicPermutation, cyclic_permutations, rho, subgraph_rho
from gemtrisect.graphs import GemError, blob_insert, residues, standard_sphere_gem
from gemtrisect.trisection import (
    ApexResidueDisconnected,
    CollapseOrdering,
    Incomplete,
    Q1Edge,
    QComplex,
    TrisectionCertificate,
    build_Q,
    certificate,
    collapse_schedule,
    minimize_k,
    stabilization_set,
    sweep,
    verify_ordering,
)

import gemtrisect.trisection as trisection
import reference
from conftest import fixture_graph, pipeline_corpus, shuffled, weld
from test_validation import _chain_corpus

IDENT = CyclicPermutation((0, 1, 2, 3, 4))


def test_sphere_square_complex_shape(s4_gem):
    Q = build_Q(s4_gem, IDENT)
    assert Q.p == 1
    assert len(Q.q1_nodes) == 4
    assert len(Q.q1_edges) == 4
    assert set(Q.sides[Q.squares[0]].keys()) == {0, 1, 2, 3}
    for edge in Q.q1_edges:
        assert edge.squares == (Q.squares[0],)


def test_square_sides_partition():
    for g in pipeline_corpus(count=10):
        Q = build_Q(g, IDENT)
        assert Q.p == len(Q.squares)
        for e in Q.squares:
            assert set(Q.sides[e].keys()) == {0, 1, 2, 3}
            for i, idx in Q.sides[e].items():
                edge = Q.q1_edges[idx]
                assert edge.color == i
                assert e in edge.squares
        # every square listed on a q1 edge has that edge as a side
        for edge in Q.q1_edges:
            for e in edge.squares:
                assert Q.sides[e][edge.color] == edge.index


def _census(g, eps, apex=4):
    e0, e3 = eps.seq[0], eps.seq[3]
    return (len(residues(g, frozenset((e0, e3))))
            - len(residues(g, frozenset((e0, e3, apex)))))


def test_stabilization_census_identity(datadir_gem):
    gems = pipeline_corpus(count=20)
    gems.append(datadir_gem("nonzero_forest.gem").graph)
    gems.append(datadir_gem("projective_plane_like.gem").graph)
    gems.append(datadir_gem("bounded_s1s2.gem").graph)
    for g in gems:
        for eps in cyclic_permutations(4):
            forest = stabilization_set(g, eps)
            assert len(forest) == _census(g, eps)
            assert len(forest) == rho(g, eps) - subgraph_rho(g, eps, 4)


def test_stabilization_count_uses_surface_cycles(s4_gem):
    # the count is g_{eps0,eps3} - g_{eps0,eps3,apex}; the same-shaped
    # difference with g_{eps0,apex} in the middle disagrees on this gem
    g = blob_insert(s4_gem, s4_gem.incident(0, 3))
    forest = stabilization_set(g, IDENT)
    g03 = len(residues(g, frozenset((0, 3))))
    g04 = len(residues(g, frozenset((0, 4))))
    g034 = len(residues(g, frozenset((0, 3, 4))))
    assert (g03, g04, g034) == (1, 2, 1)
    assert len(forest) == g03 - g034 == 0
    assert len(forest) == rho(g, IDENT) - subgraph_rho(g, IDENT, 4)
    assert g04 - g034 == 1 != len(forest)


def test_forest_seeding_always_completes(datadir_gem):
    gems = pipeline_corpus(count=20)
    gems.append(datadir_gem("nonzero_forest.gem").graph)
    gems.append(datadir_gem("projective_plane_like.gem").graph)
    for g in gems:
        for eps in cyclic_permutations(4):
            Q = build_Q(g, eps)
            ordering = collapse_schedule(Q, stabilization_set(g, eps))
            ok, why = verify_ordering(Q, ordering)
            assert ok, why
            assert len(ordering.sequence) == Q.p


def _two_square_complex():
    # both squares lie on all four cycles, so neither ever frees up
    edges = tuple(Q1Edge(i, i, None, (10, 11)) for i in range(4))
    sides = {10: {i: i for i in range(4)}, 11: {i: i for i in range(4)}}
    return QComplex(None, None, (10, 11), edges, sides, (), ((0, 1),) * 4)


def test_scheduler_reports_stuck_state():
    Q = _two_square_complex()
    with pytest.raises(Incomplete) as exc:
        collapse_schedule(Q, ())
    assert exc.value.residual == (10, 11)
    assert exc.value.cycle_counts == (2, 2, 2, 2)
    assert "2 residual squares" in str(exc.value)


def test_seeding_recovers_stuck_complex():
    Q = _two_square_complex()
    ordering = collapse_schedule(Q, (10,))
    assert ordering.stabilized == (10,)
    assert ordering.collapsed == (11,)
    assert ordering.witnesses == ((0, 0),)
    assert ordering.k == 1
    assert verify_ordering(Q, ordering) == (True, None)


def test_scheduler_rejects_foreign_seed(s4_gem):
    Q = build_Q(s4_gem, IDENT)
    with pytest.raises(GemError):
        collapse_schedule(Q, (999,))


def _referee(Q, ordering):
    """Order legality by direct simulation, written apart from the library."""
    seq = ordering.sequence
    if sorted(seq) != list(Q.squares):
        return False
    if len(ordering.witnesses) != len(ordering.collapsed):
        return False
    placed = set(ordering.stabilized)
    for e, (color, idx) in zip(ordering.collapsed, ordering.witnesses):
        edge = Q.q1_edges[idx]
        if edge.color != color or e not in edge.squares:
            return False
        if any(f != e and f not in placed for f in edge.squares):
            return False
        placed.add(e)
    return True


def test_verifier_accepts_scheduler_output():
    for g in pipeline_corpus(count=15):
        for eps in cyclic_permutations(4):
            Q = build_Q(g, eps)
            ordering = collapse_schedule(Q, stabilization_set(g, eps))
            assert verify_ordering(Q, ordering) == (True, None)
            assert _referee(Q, ordering)


def test_verifier_matches_referee_on_transpositions():
    rng = random.Random(20260814)
    accepted = rejected = 0
    for g in pipeline_corpus(count=10, seed=12):
        Q = build_Q(g, IDENT)
        ordering = collapse_schedule(Q, stabilization_set(g, IDENT))
        c, w = list(ordering.collapsed), list(ordering.witnesses)
        if len(c) < 2:
            continue
        for _ in range(12):
            i, j = rng.sample(range(len(c)), 2)
            c2, w2 = c[:], w[:]
            c2[i], c2[j] = c2[j], c2[i]
            w2[i], w2[j] = w2[j], w2[i]
            mutant = CollapseOrdering(ordering.stabilized, c2, w2)
            verdict, why = verify_ordering(Q, mutant)
            assert verdict == _referee(Q, mutant), (why, i, j)
            if verdict:
                accepted += 1
            else:
                rejected += 1
    assert accepted and rejected


def test_verifier_rejects_malformed_orderings(s4_gem):
    g = blob_insert(s4_gem, s4_gem.incident(0, 1))
    Q = build_Q(g, IDENT)
    good = collapse_schedule(Q, stabilization_set(g, IDENT))

    missing = CollapseOrdering((), good.collapsed[1:], good.witnesses[1:])
    assert verify_ordering(Q, missing)[0] is False

    short = CollapseOrdering((), good.collapsed, good.witnesses[:-1])
    assert verify_ordering(Q, short)[0] is False

    e0, (color0, idx0) = good.collapsed[0], good.witnesses[0]
    bad_color = [(color0 + 1, idx0)] + list(good.witnesses[1:])
    assert verify_ordering(
        Q, CollapseOrdering((), good.collapsed, bad_color))[0] is False

    off_cycle = next(i for i, edge in enumerate(Q.q1_edges)
                     if e0 not in edge.squares)
    bad_cycle = [(Q.q1_edges[off_cycle].color, off_cycle)]
    bad_cycle += list(good.witnesses[1:])
    assert verify_ordering(
        Q, CollapseOrdering((), good.collapsed, bad_cycle))[0] is False


def test_minimize_k_invariants():
    for g in pipeline_corpus(count=20):
        for eps in cyclic_permutations(4):
            cert = minimize_k(g, eps)
            forest = stabilization_set(g, eps)
            assert cert.k <= len(forest)
            assert cert.genus == cert.rho_base + cert.k
            assert cert.rho_surface == rho(g, eps)
            assert verify_ordering(build_Q(g, eps), cert.ordering) == (
                True, None)


def test_minimize_k_can_beat_the_forest(datadir_gem):
    g = datadir_gem("nonzero_forest.gem").graph
    assert len(stabilization_set(g, IDENT)) == 1
    cert = minimize_k(g, IDENT)
    assert cert.k == 0
    assert cert.genus == 0


def test_budget_never_hurts():
    for g in pipeline_corpus(count=8, seed=30):
        base = minimize_k(g, IDENT)
        tried = minimize_k(g, IDENT, budget=50)
        assert tried.k <= base.k


def test_budget_search_tries_small_subsets_in_order(monkeypatch):
    # #3 of projective_plane_like.gem: a forest of three squares, and
    # every single square schedules
    pp = fixture_graph("projective_plane_like.gem")
    rng = random.Random(0)
    g = weld(weld(pp, pp, rng, at=(1, 0)), pp, rng, at=(1, 0))
    Q = build_Q(g, IDENT)
    forest = stabilization_set(g, IDENT)
    assert len(forest) == 3
    s0, s1, s2 = Q.squares[:3]
    schedule = trisection.collapse_schedule
    tried = []

    def stuck_below_forest(Q, stabilized):
        # sets smaller than the forest are stuck, except (s2,)
        stabilized = tuple(stabilized)
        tried.append(stabilized)
        if len(stabilized) < len(forest) and stabilized != (s2,):
            raise Incomplete(set(Q.squares) - set(stabilized),
                             [2] * len(Q.q1_edges))
        return schedule(Q, stabilized)

    monkeypatch.setattr(trisection, "collapse_schedule", stuck_below_forest)
    greedy = [(), (s0,), (s0, s1), forest]
    # subsets below the forest size, smallest first, each in
    # combinations order, minus the sets the greedy found stuck; the
    # search stops at the first that schedules
    cert = minimize_k(g, IDENT, budget=10)
    assert tried == greedy + [(s1,), (s2,)]
    assert cert.ordering.stabilized == (s2,)
    tried.clear()
    cert = minimize_k(g, IDENT, budget=3)
    assert tried == greedy + [(s1,), (s2,)]
    assert cert.ordering.stabilized == (s2,)
    # the budget caps the attempts
    tried.clear()
    cert = minimize_k(g, IDENT, budget=1)
    assert tried == greedy + [(s1,)]
    assert cert.ordering.stabilized == forest


def _differential_corpus():
    """The pipeline corpus, shuffled chain sums and a bounded gem."""
    rng = random.Random(8)
    out = pipeline_corpus()
    for name in ("projective_plane_like.gem", "nonzero_forest.gem"):
        fixture = g = fixture_graph(name)
        for m in range(2, 9):
            g = weld(g, fixture, rng, at=(1, 0))
            out.append(shuffled(g, rng))
    out.append(fixture_graph("bounded_s1s2.gem"))
    return out


def test_square_complex_matches_per_order_reference(monkeypatch):
    def edges(Q):
        return [(e.index, e.color, e.cycle.steps, e.squares)
                for e in Q.q1_edges]

    def nodes(Q):
        return [(s, res.vertices) for s, res in Q.q1_nodes]

    for g in _differential_corpus():
        for eps in cyclic_permutations(4):
            Q, ref = build_Q(g, eps), reference.build_Q(g, eps)
            assert Q.squares == ref.squares
            assert Q.sides == ref.sides
            assert edges(Q) == edges(ref)
            assert nodes(Q) == nodes(ref)
            assert Q.edge_nodes == tuple(e.nodes for e in ref.q1_edges)

            # every corpus certificate has k = 0; forest seeds cover k > 0
            forest = stabilization_set(g, eps)
            a, b = collapse_schedule(Q, forest), collapse_schedule(ref, forest)
            assert (a.stabilized, a.collapsed, a.witnesses) == (
                b.stabilized, b.collapsed, b.witnesses)

            # minimize_k schedules on the eps-free parts of the complex
            cert = minimize_k(g, eps, budget=4)
            with monkeypatch.context() as m:
                m.setattr(trisection, "_squares", lambda g: ref)
                ref_cert = minimize_k(g, eps, budget=4)
            assert cert.as_dict() == ref_cert.as_dict()


@pytest.mark.parametrize("budget", [0, 10])
def test_sweep_matches_per_order_loop(budget):
    orders = cyclic_permutations(4)
    positive = 0
    for g in _differential_corpus() + _chain_corpus():
        schedules = {}
        for eps in orders:
            # one schedules dict serves every order, as in the sweep
            assert minimize_k(g, eps, budget, "closed", schedules).as_dict() \
                == minimize_k(g, eps, budget).as_dict()
        cert = sweep(g, orders, budget)
        assert cert.as_dict() == reference.sweep(g, orders, budget).as_dict()
        positive += cert.k > 0
    # k > 0 makes the greedy go through stuck sets shared by the orders
    assert positive >= 10


def test_sweep_shares_budget_outcomes_like_the_loop(monkeypatch):
    # the corpora never let a budget beat the greedy: make every set of
    # fewer than three squares stick unless it holds one chosen square,
    # so each order's budget search finds a set the orders before it
    # have already scheduled
    pp = fixture_graph("projective_plane_like.gem")
    rng = random.Random(0)
    g = weld(weld(pp, pp, rng, at=(1, 0)), pp, rng, at=(1, 0))
    orders = cyclic_permutations(4)
    lucky = build_Q(g, IDENT).squares[2]
    schedule = trisection.collapse_schedule

    def stuck_without_lucky(Q, stabilized):
        if lucky not in stabilized and len(stabilized) < 3:
            raise Incomplete(set(Q.squares) - set(stabilized),
                             [2] * len(Q.q1_edges))
        return schedule(Q, stabilized)

    monkeypatch.setattr(trisection, "collapse_schedule", stuck_without_lucky)
    schedules = {}
    found = 0
    for eps in orders:
        cert = minimize_k(g, eps, 10, "closed", schedules)
        assert cert.as_dict() == minimize_k(g, eps, 10).as_dict()
        found += lucky in cert.ordering.stabilized
    assert sweep(g, orders, 10).as_dict() == reference.sweep(
        g, orders, 10).as_dict()
    assert found == len(orders)


def test_certificate_shape(s4_gem):
    cert = minimize_k(s4_gem, IDENT)
    d = cert.as_dict()
    assert d["eps"] == [0, 1, 2, 3, 4]
    assert d["apex"] == 4
    assert d["k"] == 0
    assert d["genus"] == 0
    assert d["mode"] == "closed"
    assert isinstance(d["genus"], int)
    assert d["stabilized"] == []
    assert sorted(d["collapsed"]) == sorted(s4_gem.edge_ids(4))
    assert cert.sort_key() == (0, 0, (0, 1, 2, 3, 4))


def test_sort_key_prefers_low_genus_then_low_k():
    o0 = CollapseOrdering((), (1,), ((0, 0),))
    o1 = CollapseOrdering((1,), (), ())
    a = TrisectionCertificate(IDENT, o0, Fraction(1), "closed",
                              Fraction(1), Fraction(1))
    b = TrisectionCertificate(IDENT, o1, Fraction(2), "closed",
                              Fraction(1), Fraction(1))
    assert a.sort_key() < b.sort_key()
    c = TrisectionCertificate(IDENT, o1, Fraction(1), "closed",
                              Fraction(1), Fraction(0))
    assert a.sort_key() < c.sort_key()


def test_split_apex_complement_rejected(blob4_gem):
    with pytest.raises(ApexResidueDisconnected):
        build_Q(blob4_gem, IDENT)
    with pytest.raises(ApexResidueDisconnected):
        stabilization_set(blob4_gem, IDENT)
    with pytest.raises(ApexResidueDisconnected):
        minimize_k(blob4_gem, IDENT)


def test_apex_must_sit_last(s4_gem, s3_gem):
    # canonical permutations put color n last, so the apex 4 sits last
    # exactly when eps has one entry per color of a dimension-4 gem
    with pytest.raises(GemError):
        build_Q(s4_gem, CyclicPermutation((0, 1, 2, 3)))
    with pytest.raises(GemError):
        build_Q(s3_gem, CyclicPermutation((0, 1, 2, 3)))
