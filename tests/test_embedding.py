"""Regular embeddings: census formula vs. explicit face tracing.

Expected genera for the small 3-regular gems were computed by hand
from their face censuses (K33 torus: 9 edges, 3 faces; prism Klein
bottle: 9 edges, 2 faces; K4 projective plane: 6 edges, 3 faces).
"""

from fractions import Fraction

import pytest

from gemtrisect.embedding import (
    CyclicPermutation,
    cyclic_permutations,
    regular_embedding,
    rho,
    subgraph_rho,
)
from gemtrisect.graphs import bicolored_cycles

from conftest import embedding_corpus, k4_gem, prism_gem, torus_gem


# -- cyclic permutations -------------------------------------------------


def test_canonical_count():
    assert len(cyclic_permutations(4)) == 12
    assert len(cyclic_permutations(2)) == 1
    assert len(cyclic_permutations(3)) == 3


def test_cyclic_permutations_memoised_and_immutable():
    for n in (2, 3, 4):
        first = cyclic_permutations(n)
        assert isinstance(first, tuple)
        assert cyclic_permutations(n) is first
        with pytest.raises(TypeError):
            first[0] = first[-1]


def test_rotation_and_reversal_identified():
    a = CyclicPermutation((0, 1, 2, 3, 4))
    b = CyclicPermutation((2, 3, 4, 0, 1))
    c = CyclicPermutation((4, 3, 2, 1, 0))
    assert a == b == c
    assert a.seq[-1] == 4
    assert a.seq[0] < a.seq[-2]


def test_pairs_and_drop():
    eps = CyclicPermutation((0, 2, 1, 3, 4))
    assert len(eps.pairs()) == 5
    assert set(eps.drop(4)) == {0, 1, 2, 3}


# -- census-formula genus ------------------------------------------------


def test_sphere_gem_genus_zero(s4_gem):
    for eps in cyclic_permutations(4):
        assert rho(s4_gem, eps) == 0


def test_blob_gem_genus_zero(blob4_gem):
    for eps in cyclic_permutations(4):
        assert rho(blob4_gem, eps) == 0


def test_torus_gem():
    g = torus_gem()
    eps = CyclicPermutation((0, 1, 2))
    emb = regular_embedding(g, eps)
    assert emb.chi == 0
    assert emb.orientable
    assert rho(g, eps) == 1


def test_prism_klein_bottle():
    g = prism_gem()
    eps = CyclicPermutation((0, 1, 2))
    emb = regular_embedding(g, eps)
    assert emb.chi == 0
    assert not emb.orientable
    assert rho(g, eps) == 1


def test_k4_projective_plane():
    g = k4_gem()
    eps = CyclicPermutation((0, 1, 2))
    emb = regular_embedding(g, eps)
    assert emb.chi == 1
    assert not emb.orientable
    assert rho(g, eps) == Fraction(1, 2)


# -- formula vs. tracer --------------------------------------------------


def test_formula_matches_tracer_everywhere():
    perms = cyclic_permutations(4)
    for g in embedding_corpus(count=25, seed=41):
        for eps in perms:
            emb = regular_embedding(g, eps)
            assert emb.genus == rho(g, eps), (g, eps)


def test_faces_are_consecutive_bicolored_cycles():
    perms = cyclic_permutations(4)
    for g in embedding_corpus(count=6, seed=7):
        for eps in perms[:4]:
            emb = regular_embedding(g, eps)
            face_sets = sorted(
                tuple(sorted(e for e, _ in f)) for f in emb.faces)
            cyc_sets = []
            for a, b in eps.pairs():
                for cyc in bicolored_cycles(g, a, b):
                    cyc_sets.append(tuple(sorted(h >> 1 for h in cyc.walk)))
            assert face_sets == sorted(cyc_sets)


def test_face_walks_cover_each_edge_twice():
    g = torus_gem()
    emb = regular_embedding(g, CyclicPermutation((0, 1, 2)))
    uses = [e for f in emb.faces for (e, _) in f]
    assert len(uses) == 2 * len(g.edges)
    for e in range(len(g.edges)):
        assert uses.count(e) == 2


# -- subgraph genus ------------------------------------------------------


def test_subgraph_rho_sphere(s4_gem):
    eps = CyclicPermutation((0, 1, 2, 3, 4))
    assert subgraph_rho(s4_gem, eps, 4) == 0


def test_subgraph_rho_split_blob(blob4_gem):
    # a blob on the color-4 edge cuts the 4-complement in two spheres
    eps = CyclicPermutation((0, 1, 2, 3, 4))
    vals = subgraph_rho(blob4_gem, eps, 4)
    assert vals == [0, 0]


def test_subgraph_rho_matches_direct_trace():
    from gemtrisect.graphs import residue_subgem, residues
    for g in embedding_corpus(count=8, seed=13):
        eps = CyclicPermutation((0, 1, 2, 3, 4))
        sub_seq = eps.drop(4)
        comps = residues(g, frozenset(sub_seq))
        vals = subgraph_rho(g, eps, 4)
        if not isinstance(vals, list):
            vals = [vals]
        for res, val in zip(comps, vals):
            sub, _, cmap = residue_subgem(g, res)
            sub_eps = CyclicPermutation([cmap[c] for c in sub_seq])
            emb = regular_embedding(sub, sub_eps)
            assert emb.genus == val
