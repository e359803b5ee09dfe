"""Structural tests for the colored-graph layer.

Residue counts asserted here were derived with the miniature
component counter below, which shares no code with the package.
"""

import itertools
import random

import pytest

from gemtrisect.graphs import (
    ColoredGraph,
    DimensionMismatchError,
    DisconnectedError,
    GemError,
    LoopEdgeError,
    NotProperError,
    NotRegularError,
    _adjacent_pairs,
    bicolored_cycles,
    blob_insert,
    build_graph,
    connected_sum,
    is_bipartite,
    residue_count,
    residue_labels,
    residue_subgem,
    residues,
    spanning_forest,
    standard_sphere_gem,
)

from gemtrisect import graphs
from gemtrisect.cli import parse_gem

from conftest import (DATA_DIR, embedding_corpus, k4_gem, pipeline_corpus,
                      prism_gem, torus_gem, weld)
from reference import build as reference_build
from reference import component, cycle_steps


def _oracle_components(nv, pairs):
    """Independent component counter: plain iterative merging."""
    label = list(range(nv))

    def find(x):
        while label[x] != x:
            label[x] = label[label[x]]
            x = label[x]
        return x

    for u, v in pairs:
        label[find(u)] = find(v)
    return len({find(v) for v in range(nv)})


def _oracle_census(g, colorset):
    pairs = [(u, v) for (u, v, c) in g.edges if c in colorset]
    nv = g.nv
    # restrict to vertices only; every vertex is in some residue
    return _oracle_components(nv, pairs)


# -- construction -------------------------------------------------------


def test_sphere_gem_shape(s4_gem):
    assert s4_gem.nv == 2
    assert len(s4_gem.edges) == 5
    assert [c for (_, _, c) in s4_gem.edges] == [0, 1, 2, 3, 4]


def test_loop_rejected():
    with pytest.raises(LoopEdgeError):
        build_graph(1, [(0, 0, 0), (0, 1, 1), (0, 1, 0), (1, 1, 1)])


def test_duplicate_color_rejected():
    edges = [(0, 1, 0), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
    with pytest.raises(NotProperError):
        build_graph(2, edges)


def test_missing_color_rejected():
    with pytest.raises(NotRegularError, match="^2 edges on 2 vertices "
                       "cannot give each vertex all 3 colors$"):
        build_graph(2, [(0, 1, 0), (0, 1, 1)])


def test_disconnected_rejected():
    edges = [(0, 1, c) for c in range(3)] + [(2, 3, c) for c in range(3)]
    with pytest.raises(DisconnectedError):
        build_graph(2, edges)


def _mutants(g, rng, count):
    """Edge lists one or two seeded edits away from g's.

    The edits delete, duplicate, recolor or add an edge, or renumber
    the vertices: shuffled, with one id moved past the end, or with two
    ids merged.
    """
    out = []
    for _ in range(count):
        edges = list(g.edges)
        for _ in range(rng.choice((1, 1, 2))):
            kind = rng.choice(("delete", "duplicate", "recolor", "add",
                               "renumber"))
            i = rng.randrange(len(edges))
            u, v, c = edges[i]
            if kind == "delete":
                del edges[i]
            elif kind == "duplicate":
                edges.append(edges[i])
            elif kind == "recolor":
                edges[i] = (u, v, rng.randrange(g.n + 2))
            elif kind == "add":
                edges.append((rng.randrange(g.nv + 1),
                              rng.randrange(g.nv + 1), rng.randrange(g.n + 1)))
            else:
                top = 1 + max(w for e in edges for w in e[:2])
                perm = list(range(top))
                rng.shuffle(perm)
                how = rng.choice(("shuffle", "gap", "merge"))
                if how == "gap":
                    perm[rng.randrange(top)] = top
                elif how == "merge":
                    perm[rng.randrange(top)] = perm[rng.randrange(top)]
                edges = [(perm[a], perm[b], col) for a, b, col in edges]
        out.append((g.n, edges))
    return out


def _random_lists(rng, count):
    """Small random edge lists: arbitrary ones, and unions of random
    perfect matchings, which are proper and regular but may be split."""
    out = []
    for _ in range(count):
        n = rng.randrange(1, 4)
        nv = rng.randrange(1, 7)
        if nv % 2 == 0 and rng.random() < 0.5:
            edges = []
            for c in range(n + 1):
                perm = list(range(nv))
                rng.shuffle(perm)
                edges += [(perm[i], perm[i + 1], c) for i in range(0, nv, 2)]
        else:
            edges = [(rng.randrange(nv), rng.randrange(nv),
                      rng.randrange(n + 1))
                     for _ in range(rng.randrange((n + 1) * nv // 2 + 3))]
        out.append((n, edges))
    return out


def _build_outcome(builder, n, edges):
    try:
        return builder(n, edges)
    except GemError as exc:
        return exc


def test_build_matches_reference_check():
    """The count-first build accepts what the rule-by-rule check does.

    An accepted list gives the same edges and incidence table; a
    refused one the same error class, except that too few edge ends
    (2E < (n + 1) nv) are always NotRegularError, where the reference
    may first find two edges of one color at a vertex.
    """
    rng = random.Random(13)
    graphs = pipeline_corpus(count=10, seed=13) + _label_corpus()[-3:]
    cases = [case for g in graphs for case in _mutants(g, rng, 40)]
    cases += [(g.n, list(g.edges)) for g in graphs]
    cases += _random_lists(rng, 600)
    seen = set()
    for n, edges in cases:
        ref = _build_outcome(reference_build, n, edges)
        new = _build_outcome(build_graph, n, edges)
        if isinstance(ref, ColoredGraph):
            assert isinstance(new, ColoredGraph), (n, edges, new)
            assert new.edges == ref.edges and new._inc == ref._inc
            assert new._nbr == ref._nbr
            seen.add("accepted")
            continue
        nv = len({w for u, v, c in edges for w in (u, v)})
        expect = type(ref)
        if (expect not in (GemError, LoopEdgeError)
                and 2 * len(edges) < (n + 1) * nv):
            expect = NotRegularError
            seen.add("count:" + type(ref).__name__)
        assert type(new) is expect, (n, edges, ref, new)
        if expect is NotProperError:
            # the same first vertex found with two edges of one color
            assert str(new) == str(ref)
        seen.add(expect.__name__)
    # every outcome occurs, including the one where the classes differ
    assert seen >= {"accepted", "GemError", "LoopEdgeError",
                    "NotProperError", "NotRegularError", "DisconnectedError",
                    "count:NotProperError"}, seen


def test_edge_order_canonical(blob4_gem):
    assert list(blob4_gem.edges) == sorted(
        blob4_gem.edges, key=lambda e: (e[2], e[0], e[1]))


# -- residues -----------------------------------------------------------


def test_sphere_residue_counts(s4_gem):
    for r in (2, 3, 4):
        for sub in itertools.combinations(range(5), r):
            assert len(residues(s4_gem, sub)) == 1, sub


def test_blob_gem_residue_counts(blob4_gem):
    for a in range(5):
        for b in range(a + 1, 5):
            count = len(residues(blob4_gem, (a, b)))
            assert count == _oracle_census(blob4_gem, {a, b})
            assert count == (1 if 4 in (a, b) else 2)


def test_residue_counts_match_oracle_on_corpus():
    for g in embedding_corpus(count=12, seed=5):
        for r in (2, 3):
            for sub in itertools.combinations(range(5), r):
                assert len(residues(g, sub)) == _oracle_census(g, set(sub))


def test_empty_colorset_residues(s4_gem):
    rs = residues(s4_gem, ())
    assert len(rs) == 2
    assert all(len(r.vertices) == 1 for r in rs)


def test_residues_ordered_by_min_vertex(blob4_gem):
    rs = residues(blob4_gem, frozenset({0, 1}))
    starts = [r.vertices[0] for r in rs]
    assert starts == sorted(starts)


def test_residue_partitions_vertices(blob4_gem):
    rs = residues(blob4_gem, frozenset({1, 2, 4}))
    seen = [v for r in rs for v in r.vertices]
    assert sorted(seen) == list(range(blob4_gem.nv))


def _label_corpus(seed=3):
    """Sphere blobs, shuffled #m sums of projective_plane_like.gem, and
    every fixture, in dimensions 2 to 4."""
    rng = random.Random(seed)
    fixtures = [parse_gem(p.read_bytes()).graph
                for p in sorted(DATA_DIR.glob("*.gem"))]
    pp = parse_gem((DATA_DIR / "projective_plane_like.gem").read_bytes())
    out = fixtures + [torus_gem(), prism_gem(), k4_gem()]
    out += pipeline_corpus(count=8, seed=seed)
    for m in (2, 4, 8):
        g = pp.graph
        cls = is_bipartite(pp.graph)[1]
        for _ in range(m - 1):
            v1 = rng.randrange(g.nv)
            v2 = cls.index(1 - is_bipartite(g)[1][v1])
            g = connected_sum(g, pp.graph, v1, v2)
        perm = list(range(g.nv))
        rng.shuffle(perm)
        out.append(build_graph(
            g.n, [(perm[u], perm[v], c) for u, v, c in g.edges]))
    return out


def test_residue_labels_match_component_bfs():
    for g in _label_corpus():
        subsets = [frozenset(sub) for r in range(g.n + 2)
                   for sub in itertools.combinations(g.colors, r)]
        for i, cs in enumerate(subsets):
            # either call may fill the shared cache entry
            if i % 2:
                label, rs = residue_labels(g, cs), residues(g, cs)
            else:
                rs, label = residues(g, cs), residue_labels(g, cs)
            parts, seen = [], set()
            for v in range(g.nv):
                if v not in seen:
                    comp = component(g, cs, v)
                    seen |= comp
                    parts.append(tuple(sorted(comp)))
            assert [r.vertices for r in rs] == parts, (g, sorted(cs))
            assert len(label) == g.nv
            for idx, r in enumerate(rs):
                assert r.colors == cs
                assert r.edge_ids == tuple(sorted(
                    {g.incident(v, c) for v in r.vertices for c in cs}))
                assert all(label[v] == idx for v in r.vertices)


def _walked_census(g, cs):
    """Labels, first vertices and sorted vertex tuples of cs's residues,
    by a component walk from each vertex no earlier walk reached."""
    label = [None] * g.nv
    parts = []
    for v in range(g.nv):
        if label[v] is None:
            part = tuple(sorted(component(g, cs, v)))
            for w in part:
                label[w] = len(parts)
            parts.append(part)
    return tuple(label), tuple(p[0] for p in parts), parts


def test_joined_labels_equal_walked_labels():
    # color sets first requested in a random order, and residues()
    # asked for before or after the census: a pair is labelled by its
    # alternating walk, a set whose subset without its largest color is
    # memoised is joined from it, any other set is walked, and labels,
    # count, first vertices and the lazily built residues must equal a
    # component walk, on blobs, chain sums, fixtures and random welds of
    # both closed fixtures
    rng = random.Random(1903)
    gems = _label_corpus()
    for name in ("projective_plane_like.gem", "nonzero_forest.gem"):
        fixture = g = parse_gem((DATA_DIR / name).read_bytes()).graph
        for _ in range(5):
            g = weld(g, fixture, rng)
            gems.append(g)
    joined = lazy = 0
    for g in gems:
        subsets = [frozenset(sub) for r in range(g.n + 2)
                   for sub in itertools.combinations(g.colors, r)]
        rng.shuffle(subsets)
        for cs in subsets:
            joined += len(cs) >= 3 and cs - {max(cs)} in g._memo
            label, firsts, parts = _walked_census(g, cs)
            walked = [(cs, part) for part in parts]
            if rng.random() < 0.5:
                assert [(r.colors, r.vertices)
                        for r in residues(g, cs)] == walked
            else:
                lazy += 1
            assert residue_labels(g, cs) == label, (g, sorted(cs))
            assert residue_count(g, cs) == len(parts)
            assert graphs._census(g, cs) == (label, firsts)
            assert [(r.colors, r.vertices)
                    for r in residues(g, cs)] == walked, (g, sorted(cs))
    assert joined >= 100 and lazy >= 300


def test_census_refuses_colors_outside_the_gem(s4_gem):
    # a color past n, or below 0, names no edge of the gem
    for cs in ({5}, {-1, 2}, {0, 1, 7}):
        for query in (residues, residue_labels, residue_count):
            with pytest.raises(GemError, match="outside 0..4"):
                query(s4_gem, cs)
    # bicolored_cycles walks from the census of its pair
    for c, d in ((-1, 0), (0, 7), (2, 5)):
        with pytest.raises(GemError, match="outside 0..4"):
            bicolored_cycles(s4_gem, c, d)


def test_edge_ids_of_a_color_match_a_scan():
    for g in _label_corpus() + embedding_corpus(count=10, seed=11):
        assert g.edge_ids() == range(len(g.edges))
        for c in g.colors:
            assert list(g.edge_ids(c)) == [
                i for i, (_, _, d) in enumerate(g.edges) if d == c]


# -- spanning forests ---------------------------------------------------


def test_spanning_forest_by_hand():
    assert spanning_forest(3, []) == []
    # parallel pairs: only the first joins the two trees
    assert spanning_forest(2, [(0, 1), (1, 0), (0, 1)]) == [0]
    # a loop (x, x) never joins two trees
    assert spanning_forest(3, [(1, 1), (0, 0), (0, 1), (2, 2)]) == [2]
    # (1, 2) and (0, 3) both join the trees {0, 1} and {2, 3}
    assert spanning_forest(4, [(0, 1), (2, 3), (1, 2), (0, 3)]) == [0, 1, 2]
    assert spanning_forest(4, [(0, 1), (2, 3), (0, 3), (1, 2)]) == [0, 1, 2]
    assert spanning_forest(4, iter([(3, 2), (2, 1), (1, 3)])) == [0, 1]


def test_spanning_forest_counts_bfs_components():
    for g in _label_corpus():
        for r in range(g.n + 1):
            for cs in itertools.combinations(g.colors, r):
                pairs = [(u, v) for u, v, c in g.edges if c in cs]
                starts, seen = 0, set()
                for v in range(g.nv):
                    if v not in seen:
                        seen |= component(g, cs, v)
                        starts += 1
                forest = spanning_forest(g.nv, pairs)
                assert g.nv - len(forest) == starts, (g, cs)


# -- bipartiteness ------------------------------------------------------


def test_sphere_bipartite(s4_gem):
    flag, cls = is_bipartite(s4_gem)
    assert flag and cls == (0, 1)


def test_prism_not_bipartite():
    g = prism_gem()
    flag, walk = is_bipartite(g)
    assert not flag
    assert len(walk) % 2 == 1
    # witness must be a closed walk in the graph
    for i, v in enumerate(walk):
        w = walk[(i + 1) % len(walk)]
        assert any({u, t} == {v, w} for (u, t, _) in g.edges)


def test_torus_gem_bipartite():
    flag, cls = is_bipartite(torus_gem())
    assert flag
    assert set(cls[:3]) == {0} and set(cls[3:]) == {1}


# -- bicolored cycles ---------------------------------------------------


def test_cycles_alternate_and_cover():
    for g in embedding_corpus(count=8, seed=11):
        rng = random.Random(3)
        for _ in range(4):
            c, d = rng.sample(range(5), 2)
            cycles = bicolored_cycles(g, c, d)
            covered = []
            for cyc in cycles:
                assert len(cyc) % 2 == 0
                steps = cycle_steps(cyc)
                cols = [g.edges[e][2] for e, _ in steps]
                assert set(cols) == {c, d}
                assert all(x != y for x, y in zip(cols, cols[1:]))
                # the walk closes: each step leaves the vertex the one
                # before it arrives at, the last returning to start
                tails, heads = [], []
                for eid, direction in steps:
                    u, v, _ = g.edges[eid]
                    tails.append(u if direction == 1 else v)
                    heads.append(v if direction == 1 else u)
                assert tails == [cyc.start] + heads[:-1]
                assert heads[-1] == cyc.start
                # each starts at its minimum vertex along min(c, d)
                assert cyc.start == min(tails)
                assert cols[0] == min(c, d)
                covered.extend(tails)
            assert sorted(covered) == list(range(g.nv))
            assert len(cycles) == _oracle_census(g, {c, d})
            starts = [cyc.start for cyc in cycles]
            assert starts == sorted(starts)


# -- the neighbor table --------------------------------------------------

def _decoded_neighbors(g):
    """The vertex across each edge of the incidence table, from g.edges."""
    out = []
    for v, row in enumerate(g._inc):
        ends = [g.edges[eid][:2] for eid in row]
        out.append(tuple(b if a == v else a for a, b in ends))
    return tuple(out)


def _table_corpus():
    """Graphs from every constructor that fills the tables."""
    rng = random.Random(71)
    built = _label_corpus()
    out = list(built)
    for g in built:
        for cs in itertools.combinations(g.colors, min(3, g.n)):
            out += [residue_subgem(g, r)[0] for r in residues(g, cs)]
        if is_bipartite(g)[0]:
            v1 = rng.randrange(g.nv)
            other = [w for w in range(g.nv)
                     if is_bipartite(g)[1][w] != is_bipartite(g)[1][v1]]
            out.append(connected_sum(g, g, v1, rng.choice(other)))
        out.append(blob_insert(g, rng.randrange(len(g.edges))))
        out.append(reference_build(g.n, list(g.edges)))
    return out


def test_neighbor_table_matches_decoded_edges():
    kinds = set()
    for g in _table_corpus():
        assert g._nbr == _decoded_neighbors(g)
        assert all(g.neighbor(v, c) == (g._nbr[v][c], g._inc[v][c])
                   for v in range(g.nv) for c in g.colors)
        kinds.add(g.n)
    assert kinds == {1, 2, 3, 4}


def test_adjacent_pairs_match_an_edge_scan():
    # the pairs every dipole chain on g starts from, grouped by the mask
    # of the colors joining them and memoised on g
    for g in _label_corpus():
        joins = {}
        for u, v, c in g.edges:
            joins[u, v] = joins.get((u, v), 0) | 1 << c
        scan = {}
        for pair, mask in sorted(joins.items()):
            scan.setdefault(mask, []).append(pair)
        assert _adjacent_pairs(g) == scan
        assert _adjacent_pairs(g) is _adjacent_pairs(g)


# -- constructions ------------------------------------------------------


def test_blob_insert_grows_by_two(s4_gem):
    g = blob_insert(s4_gem, 0)
    assert g.nv == s4_gem.nv + 2
    assert len(g.edges) == len(s4_gem.edges) + 5


def test_blob_preserves_bipartite():
    rng = random.Random(0)
    g = standard_sphere_gem(4)
    for _ in range(6):
        g = blob_insert(g, rng.randrange(len(g.edges)))
        assert is_bipartite(g)[0]


def test_connected_sum_of_spheres_is_sphere(s4_gem):
    out = connected_sum(s4_gem, s4_gem, 0, 1)
    assert out == s4_gem


def test_connected_sum_same_class_rejected(s4_gem):
    with pytest.raises(GemError):
        connected_sum(s4_gem, s4_gem, 0, 0)


def test_connected_sum_dimension_mismatch(s4_gem, s3_gem):
    with pytest.raises(DimensionMismatchError):
        connected_sum(s4_gem, s3_gem, 0, 1)


def test_connected_sum_order():
    g1 = blob_insert(standard_sphere_gem(4), 2)
    g2 = blob_insert(standard_sphere_gem(4), 4)
    out = connected_sum(g1, g2, 1, 0)
    assert out.nv == g1.nv + g2.nv - 2


def test_residue_subgem_roundtrip(blob4_gem):
    res = residues(blob4_gem, frozenset({0, 1, 2, 3}))[0]
    sub, vmap, cmap = residue_subgem(blob4_gem, res)
    assert sub.n == 3
    assert sub.nv == len(res.vertices)
    assert len(sub.edges) == len(res.edge_ids)
