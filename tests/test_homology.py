"""Chain complex, integer elimination, and group presentation tests.

Smith normal form and GF(2) rank get independent oracles (sympy and a
dense elimination written here); the rest are structural identities
checked across the random corpora.
"""

import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from gemtrisect.graphs import residue_labels, standard_sphere_gem
from gemtrisect.homology import (
    BoundLedger,
    GroupPresentation,
    HomologyGroup,
    _build_pi1,
    _cokernel,
    _gf2_rank,
    _snf_divisors,
    _tietze,
    bound_ledger,
    boundary_h1,
    chain_complex,
    euler_characteristic,
    h1,
    homology,
    pi1_presentation,
)

import reference
from conftest import (complementary_subgems, embedding_corpus, fixture_graph,
                      grow_gem, k4_gem, pipeline_corpus, prism_gem, shuffled,
                      torus_gem, weld)


def _to_sympy(cols, nrows):
    m = sympy.zeros(nrows, max(len(cols), 1))
    for j, col in enumerate(cols):
        for i, v in col.items():
            m[i, j] = v
    return m


def _oracle_divisors(cols, nrows):
    if not cols or nrows == 0:
        return []
    snf = smith_normal_form(_to_sympy(cols, nrows))
    diag = [abs(snf[i, i]) for i in range(min(snf.rows, snf.cols))]
    return [int(d) for d in diag if d != 0]


def _oracle_gf2_rank(cols, nrows):
    rows = [[col.get(i, 0) % 2 for col in cols] for i in range(nrows)]
    rank = 0
    for j in range(len(cols)):
        piv = next((i for i in range(rank, nrows) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(nrows):
            if i != rank and rows[i][j]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _random_columns(rng, nrows, ncols, density=0.5, lo=-5, hi=5):
    cols = []
    for _ in range(ncols):
        col = {}
        for i in range(nrows):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    col[i] = v
        cols.append(col)
    return cols


_ENTRY = st.integers(min_value=-12, max_value=12)      # 0: an explicit zero
_NON_UNIT = _ENTRY.filter(lambda v: abs(v) != 1)


@st.composite
def _sparse_matrices(draw):
    """Columns of an up to 8x8 matrix with explicit zeros, empty columns
    and zero rows; half the time with no +-1 entry, so the elimination
    takes a non-unit pivot from the first pass."""
    nrows = draw(st.integers(min_value=1, max_value=8))
    entry = draw(st.sampled_from((_ENTRY, _NON_UNIT)))
    column = st.dictionaries(st.integers(min_value=0, max_value=nrows - 1),
                             entry, max_size=nrows)
    return draw(st.lists(column, max_size=8)), nrows


@st.composite
def _diagonal_torsion(draw):
    """A diagonal of torsion entries, rows in shuffled order: coprime
    entries must merge, as diag(2, 3) has the single divisor 6."""
    values = draw(st.lists(st.integers(min_value=2, max_value=30),
                           min_size=1, max_size=8))
    rows = draw(st.permutations(range(len(values))))
    return [{r: v} for r, v in zip(rows, values)], len(values)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_sparse_matrices(), _diagonal_torsion()))
def test_snf_divisors_match_sympy(case):
    cols, nrows = case
    before = [dict(c) for c in cols]
    assert _snf_divisors(cols) == sorted(_oracle_divisors(cols, nrows))
    assert cols == before


def test_snf_merges_coprime_torsion():
    # min_generators, and with it the ledger's rk_lower, counts the
    # invariant factors: Z/2 + Z/3 is the cyclic Z/6
    assert _snf_divisors([{0: 2}, {1: 3}]) == [1, 6]
    group = _cokernel([{0: 2}, {1: 3}], 2)
    assert group == HomologyGroup(0, [6])
    assert group.min_generators == 1


def test_snf_divisor_chain_divides():
    rng = random.Random(7)
    for _ in range(40):
        cols = _random_columns(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        divs = _snf_divisors(cols)
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0


def test_gf2_rank_matches_dense_elimination():
    rng = random.Random(3)
    for _ in range(60):
        nrows = rng.randrange(1, 9)
        ncols = rng.randrange(0, 9)
        cols = _random_columns(rng, nrows, ncols, lo=0, hi=1)
        assert _gf2_rank(cols) == _oracle_gf2_rank(cols, nrows)


def test_sphere_chain_cells():
    cc = chain_complex(standard_sphere_gem(4))
    assert cc.cell_counts() == (5, 10, 10, 5, 2)
    assert cc.euler_characteristic() == 2
    assert cc.validate()


def test_boundary_squared_zero_on_corpus():
    for g in embedding_corpus(count=20):
        assert chain_complex(g).validate()


def test_sphere_homology():
    assert homology(standard_sphere_gem(4)) == [
        HomologyGroup(1), HomologyGroup(0), HomologyGroup(0),
        HomologyGroup(0), HomologyGroup(1)]
    assert homology(standard_sphere_gem(3)) == [
        HomologyGroup(1), HomologyGroup(0), HomologyGroup(0),
        HomologyGroup(1)]


def test_torus_homology_and_pi1():
    g = torus_gem()
    h = homology(g)
    assert h[1] == HomologyGroup(2)
    assert pi1_presentation(g).abelianization() == HomologyGroup(2)


def test_blown_up_spheres_stay_spheres():
    # blob insertion and sphere sums never change the represented space
    for g in embedding_corpus(count=25):
        h = homology(g)
        assert h[0] == HomologyGroup(1)
        assert h[1] == HomologyGroup(0)
        assert h[-1] == HomologyGroup(1)


def test_euler_characteristic_equals_betti_alternation():
    for g in embedding_corpus(count=15):
        cc = chain_complex(g)
        h = homology(g)
        assert cc.euler_characteristic() == sum(
            (-1) ** d * grp.rank for d, grp in enumerate(h))


def test_euler_characteristic_from_residue_counts():
    # against the chain complex's cells, on gems of both dimensions and
    # on sums: #m of the CP^2-like fixture has chi = 2 + m
    gems = embedding_corpus(count=15) + pipeline_corpus(count=15)
    gems += [torus_gem(), prism_gem(), k4_gem()]
    rng = random.Random(3)
    for name in ("projective_plane_like.gem", "nonzero_forest.gem",
                 "bounded_s1s2.gem"):
        fixture = g = fixture_graph(name)
        for _ in range(3):
            gems.append(g)
            g = weld(g, fixture, rng)
    for g in gems:
        assert euler_characteristic(g) == (
            chain_complex(g).euler_characteristic())
    fixture = g = fixture_graph("projective_plane_like.gem")
    for m in range(1, 5):
        assert euler_characteristic(g) == 2 + m
        g = weld(g, fixture, rng)


def test_z2_betti_alternation_matches_chi():
    for g in embedding_corpus(count=15):
        cc = chain_complex(g)
        hz2 = homology(g, coefficients="Z/2")
        assert cc.euler_characteristic() == sum(
            (-1) ** d * grp.rank for d, grp in enumerate(hz2))


def test_abelianization_matches_homology_exactly():
    for g in pipeline_corpus(count=30):
        assert pi1_presentation(g).abelianization() == homology(g)[1]


def test_pi1_trivial_on_sphere_corpus():
    for g in pipeline_corpus(count=20):
        assert pi1_presentation(g).num_generators == 0


def _same(p, q):
    return (p.num_generators, p.relators) == (q.num_generators, q.relators)


def _pi1_corpus(seed=7019):
    """Sphere blobs, shuffled chain sums #2-#8 of two fixtures, every
    4-residue sub-gem of the sums, and gems with nontrivial pi1."""
    rng = random.Random(seed)
    out = embedding_corpus(count=20) + pipeline_corpus(count=20)
    out += [torus_gem(), prism_gem(), k4_gem()]
    for name in ("s1s2_3manifold.gem", "bounded_s1s2.gem"):
        g = shuffled(grow_gem(fixture_graph(name), 6, rng), rng)
        out.append(g)
        out.extend(complementary_subgems(g))
    for name in ("projective_plane_like.gem", "nonzero_forest.gem"):
        fixture = g = fixture_graph(name)
        for m in range(2, 9):
            g = weld(g, fixture, rng, at=(1, 0))
            s = shuffled(g, rng)
            out.append(s)
            out.extend(complementary_subgems(s))
    return out


def test_pi1_matches_chain_complex_reference():
    # the 2-skeleton builder and indexed Tietze moves give the very
    # presentation of the chain_complex builder and pass-by-pass moves
    nontrivial = 0
    for g in _pi1_corpus():
        pres = _build_pi1(g)
        assert _same(pres, reference.build_pi1(g))
        nontrivial += pres.num_generators > 0
    assert nontrivial >= 4


def test_two_skeleton_is_the_whole_complex_cut_at_dimension_two():
    # _build_pi1 reads chain_complex(g, 2): the cells, columns (rows in
    # face order) and positions of the whole complex's dimensions 0..2
    for g in _pi1_corpus():
        whole, cut = chain_complex(g), chain_complex(g, 2)
        assert cut.cells == whole.cells[:3]
        assert len(cut.boundaries) == 3
        for d in (1, 2):
            assert [list(col.items()) for col in cut.boundaries[d]] == [
                list(col.items()) for col in whole.boundaries[d]]
        for d in (0, 1):
            for colorset in {cs for cs, _ in whole.cells[d]}:
                label = residue_labels(g, colorset)
                for v in range(g.nv):
                    pos = cut.position(colorset, v)
                    assert pos == whole.position(colorset, v)
                    cs, first = cut.cells[d][pos]
                    assert cs == colorset and label[first] == label[v]
        assert cut.validate()


@st.composite
def _presentations(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    letter = st.integers(min_value=1, max_value=k).flatmap(
        lambda x: st.sampled_from((x, -x)))
    word = st.one_of(
        st.lists(letter, min_size=1, max_size=2),       # short relators
        letter.map(lambda x: (x, x)),                   # x.x
        st.lists(letter, max_size=7))
    words = draw(st.lists(word, max_size=9))
    if words:
        words += draw(st.lists(st.sampled_from(words), max_size=2))
    return GroupPresentation(k, words)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_presentations())
def test_tietze_matches_reference(pres):
    assert _same(_tietze(pres), reference._tietze(pres))


def test_circle_bundle_fixture_homology(datadir_gem):
    gf = datadir_gem("s1s2_3manifold.gem")
    assert homology(gf.graph) == [HomologyGroup(1)] * 4
    ab = pi1_presentation(gf.graph).abelianization()
    assert ab == HomologyGroup(1)


def test_second_betti_fixture_homology(datadir_gem):
    gf = datadir_gem("projective_plane_like.gem")
    h = homology(gf.graph)
    assert [grp.rank for grp in h] == [1, 0, 1, 0, 1]
    assert all(not grp.torsion for grp in h)
    assert pi1_presentation(gf.graph).num_generators == 0


def test_bound_ledger_sphere_all_zero(s4_gem):
    from gemtrisect.embedding import CyclicPermutation
    from gemtrisect.trisection import minimize_k
    eps = CyclicPermutation((0, 1, 2, 3, 4))
    cert = minimize_k(s4_gem, eps)
    led = bound_ledger(s4_gem, cert)
    assert led.violations() == []
    for f in BoundLedger.FIELDS:
        assert getattr(led, f) == 0


def test_bound_ledger_reads_h1_once(datadir_gem, monkeypatch):
    from gemtrisect.embedding import CyclicPermutation
    from gemtrisect.trisection import minimize_k
    g = datadir_gem("projective_plane_like.gem").graph
    eps = CyclicPermutation((0, 1, 2, 3, 4))
    cert = minimize_k(g, eps)
    group, boundary = h1(g), boundary_h1(g)

    def again(pres):
        raise AssertionError("H1 abelianised a second time")
    monkeypatch.setattr(GroupPresentation, "abelianization", again)
    led = bound_ledger(g, cert)
    assert led.rk_lower == group.min_generators
    assert led.heegaard_lower == boundary.min_generators


def test_bound_ledger_rho_fields_match_a_fresh_census():
    # the ledger reads the certificate's regular genera; they are the
    # census values of the chosen eps, for g and its apex-free residue.
    # The corpus gems are spheres with both genera 0; the fixtures are
    # not, and their two genera differ
    from gemtrisect.embedding import cyclic_permutations, rho, subgraph_rho
    from gemtrisect.trisection import sweep
    fixtures = [fixture_graph(name) for name in (
        "projective_plane_like.gem", "nonzero_forest.gem",
        "two_singular_colors.gem", "bounded_s1s2.gem")]
    for g in pipeline_corpus() + fixtures:
        cert = sweep(g, cyclic_permutations(4))
        led = bound_ledger(g, cert)
        assert led.rho_eps_gamma == cert.rho_surface == rho(g, cert.eps)
        assert led.rho_eps_gamma_hat4 == led.heegaard_upper == \
            cert.rho_base == subgraph_rho(g, cert.eps, 4)


def test_bound_ledger_flags_violations():
    led = BoundLedger(rho_eps_gamma=1, rho_eps_gamma_hat4=0, rk_lower=2,
                      rk_upper=1, heegaard_lower=3, heegaard_upper=2,
                      g_GT_upper=2, g_T_upper=2)
    out = led.violations()
    assert "rk_lower > rk_upper" in out
    assert "heegaard_lower > heegaard_upper" in out
    assert "heegaard_lower + rk_lower > g_GT_upper" in out
    assert "g_GT_upper > rho_eps_gamma" in out


def test_homology_needs_bipartite_for_integers():
    with pytest.raises(Exception):
        homology(prism_gem())
