"""Square complex construction, collapse scheduling, and certificates."""

import random
from fractions import Fraction

import pytest

from gemtrisect import embedding
from gemtrisect.cli import GemFile, run_pipeline
from gemtrisect.embedding import CyclicPermutation, cyclic_permutations, rho, subgraph_rho
from gemtrisect.graphs import GemError, blob_insert, residues
from gemtrisect.trisection import (
    ApexResidueDisconnected,
    CollapseOrdering,
    Incomplete,
    Q1Edge,
    QComplex,
    TrisectionCertificate,
    build_Q,
    collapse_schedule,
    minimize_k,
    stabilization_set,
    sweep,
    verify_ordering,
)

import gemtrisect.trisection as trisection
import reference
from conftest import (fixture_graph, pipeline_corpus, s1s3_welds, shuffled,
                      weld)
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


def _scheduled(schedule, Q, stabilized):
    """A schedule's ordering as plain data, or the stuck state it
    raised."""
    try:
        ordering = schedule(Q, stabilized)
    except Incomplete as stuck:
        return "stuck", stuck.residual, stuck.cycle_counts
    return ordering.stabilized, ordering.collapsed, ordering.witnesses


def _label_steps(g, cycle):
    """A bicolored cycle's (edge id, +1 or -1) steps read off its visit
    order and the graph, +1 running an edge from its low end."""
    lo, hi = sorted(cycle.colors)
    vs = cycle.vertices
    steps = []
    for i, v in enumerate(vs):
        w = vs[(i + 1) % len(vs)]
        e = g.incident(v, hi if i % 2 else lo)
        assert {v, w} == set(g.edges[e][:2])
        steps.append((e, 1 if v < w else -1))
    return tuple(steps)


def test_counting_scheduler_matches_set_scheduler_with_handles():
    # the pipeline's chain sums stabilize nothing; here squares are
    # placed up front: seeded welds with 1-2 squares beyond the forest,
    # and every set minimize_k's greedy tries on s1s3_welds and on
    # chains of s1s3.gem, the stuck ones included
    rng = random.Random(30)
    cases = []
    for name in ("projective_plane_like.gem", "nonzero_forest.gem"):
        fixture = fixture_graph(name)
        for m in (2, 3, 4, 5):
            g = fixture
            for _ in range(1, m):
                g = weld(g, fixture, rng)
            eps = rng.choice(cyclic_permutations(4))
            forest = tuple(stabilization_set(g, eps))
            spare = sorted(set(g.edge_ids(4)) - set(forest))
            cases.append((g, forest + tuple(rng.sample(spare,
                                                       rng.randrange(1, 3)))))
    s13 = fixture_graph("s1s3.gem")
    chains = []
    for m in (2, 3, 4):
        g = s13
        for _ in range(1, m):
            g = weld(g, s13, rng, at=(g.nv - 1, 0))
        chains.append(g)
    for g in s1s3_welds(count=6, seed=30) + chains:
        Q = build_Q(g, IDENT)
        stab = []
        while True:
            cases.append((g, tuple(stab)))
            try:
                collapse_schedule(Q, stab)
                break
            except Incomplete as stuck:
                counts = stuck.cycle_counts
                stab.append(min(stuck.residual, key=lambda e: (
                    min(counts[i] for i in Q.sides[e].values()), e)))
    stuck = placed = 0
    for g, stab in cases:
        Q = build_Q(g, IDENT)
        got = _scheduled(collapse_schedule, Q, stab)
        assert got == _scheduled(reference.set_collapse_schedule, Q, stab)
        lowest = _scheduled(reference.collapse_schedule, Q, stab)
        assert got[:2] == lowest[:2]
        stuck += got[0] == "stuck"
        placed += len(stab)
        for edge in Q.q1_edges:
            assert (reference.cycle_steps(edge.cycle)
                    == _label_steps(g, edge.cycle))
    assert stuck >= 15 and placed >= 60


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


def test_budget_above_maxsize_is_a_large_budget(datadir_gem):
    # a budget past sys.maxsize only caps the search, as any budget
    # above the number of subsets tried does
    g = datadir_gem("two_singular_colors.gem").graph
    cert = minimize_k(g, IDENT, budget=5)
    assert cert.k == 1
    assert minimize_k(g, IDENT, budget=2**63).as_dict() == cert.as_dict()


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
        return [(e.index, e.color, e.cycle.walk, e.squares)
                for e in Q.q1_edges]

    def nodes(Q):
        return [(s, res.vertices) for s, res in Q.q1_nodes]

    def indexed_nodes(Q):
        # build_Q names each node by its index among the residues
        return [(s, residues(Q.graph, s)[i].vertices) for s, i in Q.q1_nodes]

    for g in _differential_corpus():
        for eps in cyclic_permutations(4):
            Q, ref = build_Q(g, eps), reference.build_Q(g, eps)
            assert Q.squares == ref.squares
            assert Q.sides == ref.sides
            assert edges(Q) == edges(ref)
            assert indexed_nodes(Q) == nodes(ref)
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


def _floor_corpus():
    """The pipeline corpus, pp_sum3.gem and 12 seeded welds of both
    closed fixtures."""
    out = pipeline_corpus() + [fixture_graph("pp_sum3.gem")]
    fixtures = [fixture_graph(name) for name in
                ("projective_plane_like.gem", "nonzero_forest.gem")]
    for seed in range(12):
        rng = random.Random(seed)
        g = rng.choice(fixtures)
        for _ in range(rng.randrange(1, 5)):
            g = weld(g, rng.choice(fixtures), rng)
        out.append(g)
    return out


@pytest.mark.parametrize("budget", [0, 10])
def test_sweep_stops_at_its_genus_floor(budget, monkeypatch):
    orders = cyclic_permutations(4)
    calls = []
    run = trisection.minimize_k
    monkeypatch.setattr(trisection, "minimize_k",
                        lambda g, eps, *a: calls.append(eps) or run(g, eps, *a))
    for g in _floor_corpus():
        calls.clear()
        cert = sweep(g, orders, budget)
        assert cert.as_dict() == reference.sweep(g, orders, budget).as_dict()
        # the least-floor order reaches its floor: no other one runs
        assert calls == [cert.eps] and cert.k == 0
        assert cert.genus == min(subgraph_rho(g, eps, 4) for eps in orders)


def _stub_sweep(s4_gem, monkeypatch, floors, ks):
    """sweep with stubbed floors and k; the orders minimize_k ran.

    The stub stands in for the memoised floor, apex_free_rho, and
    checks that the sweep asks it once for each order, in order.
    """
    orders = cyclic_permutations(4)
    floor_of = dict(zip(orders, floors))
    k_of = dict(zip(orders, ks))
    ran = []
    asked = []

    def stub_minimize_k(g, eps, budget, mode, schedules):
        ran.append(eps)
        ordering = CollapseOrdering(range(k_of[eps]), (), ())
        return TrisectionCertificate(eps, ordering, floor_of[eps] + k_of[eps],
                                     mode, Fraction(0), floor_of[eps])

    monkeypatch.setattr(trisection, "apex_free_rho",
                        lambda g, eps: asked.append(eps) or floor_of[eps])
    monkeypatch.setattr(trisection, "minimize_k", stub_minimize_k)
    best = sweep(s4_gem, orders)
    assert asked == list(orders)
    return best, orders, ran


def test_sweep_runs_same_floor_orders_until_one_reaches_it(s4_gem,
                                                            monkeypatch):
    # orders 3, 7 and 11 share the least floor; 3 needs k = 2, 7 none
    floors = [5, 4, 5, 3, 6, 4, 5, 3, 6, 4, 5, 3]
    ks = [0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0]
    best, orders, ran = _stub_sweep(s4_gem, monkeypatch, floors, ks)
    assert ran == [orders[3], orders[7]]
    assert best.eps == orders[7] and (best.genus, best.k) == (3, 0)


def test_sweep_never_schedules_a_higher_floor(s4_gem, monkeypatch):
    # every floor-3 order needs k = 1, so a floor-4 order with k = 0
    # wins on k at the same genus; the floor-5 and floor-6 orders,
    # k = 0 or not, never run
    floors = [5, 4, 5, 3, 6, 4, 5, 3, 6, 4, 5, 3]
    ks = [0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 1]
    best, orders, ran = _stub_sweep(s4_gem, monkeypatch, floors, ks)
    assert ran == [orders[3], orders[7], orders[11], orders[1]]
    assert best.eps == orders[1] and (best.genus, best.k) == (4, 0)
    assert best.sort_key() == min((f + k, k, eps.seq) for f, k, eps
                                  in zip(floors, ks, orders))


def test_pipeline_computes_one_floor_per_induced_order(monkeypatch):
    # the 12 cyclic orders induce 3 cycles of the four apex-free colors,
    # and the sweep, the winner's certificate and its stabilized surface
    # read each floor from the memo: 3 runs of subgraph_rho, not 14
    rng = random.Random(8)
    fixture = g = fixture_graph("projective_plane_like.gem")
    for _ in range(7):
        g = weld(g, fixture, rng, at=(1, 0))
    g = shuffled(g, rng)
    induced = []
    run = embedding.subgraph_rho

    def counting(g, eps, drop_color):
        seq = eps.drop(drop_color)
        induced.append(frozenset(map(frozenset, zip(seq, seq[1:] + seq[:1]))))
        return run(g, eps, drop_color)

    monkeypatch.setattr(embedding, "subgraph_rho", counting)
    rec, _ = run_pipeline(GemFile(4, None, {}, g))
    assert rec.exit_code == 0 and rec.as_dict()["diagram_ref"]["verified"]
    assert rec.as_dict()["certificate"]["genus"] == 8
    assert len(induced) == len(set(induced)) == 3


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
    with pytest.raises(ApexResidueDisconnected):
        sweep(blob4_gem, cyclic_permutations(4))


def test_apex_must_sit_last(s4_gem, s3_gem):
    # canonical permutations put color n last, so the apex 4 sits last
    # exactly when eps has one entry per color of a dimension-4 gem
    with pytest.raises(GemError):
        build_Q(s4_gem, CyclicPermutation((0, 1, 2, 3)))
    with pytest.raises(GemError):
        build_Q(s3_gem, CyclicPermutation((0, 1, 2, 3)))
