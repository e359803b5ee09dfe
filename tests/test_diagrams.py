"""Curve systems, surface resolution checks, and diagram export."""

import json
import random
import types
import xml.etree.ElementTree as ET
from bisect import bisect_right
from fractions import Fraction

import pytest

from gemtrisect import diagrams
from gemtrisect.diagrams import (
    CountMismatch,
    ExpansionDiverged,
    TrisectionDiagram,
    UnsupportedFormat,
    _chord_index,
    _crossing_free,
    _intersection_columns,
    _reduce,
    _resolve,
    _self_intersections,
    _strand_order,
    _to_walk,
    alpha_beta_curves,
    assemble_diagram,
    diagram_json_dict,
    export_diagram,
    gamma_curves,
    verify_diagram,
    wall_graphs,
)
from gemtrisect.embedding import (CyclicPermutation, cyclic_permutations,
                                  stabilized_surface)
from gemtrisect.graphs import (GemError, build_graph, connected_sum,
                               is_bipartite, standard_sphere_gem)
from gemtrisect.trisection import (
    CollapseOrdering,
    build_Q,
    certificate,
    collapse_schedule,
    minimize_k,
    stabilization_set,
    sweep,
)

import reference
from conftest import pipeline_corpus, weld
from reference import (_signed_intersection, corridor_map, lane_orders,
                       signed_surface)
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
    walks = [_to_walk(surf, c)
             for _, curves in d.systems() for c in curves]
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
    gem_of = {i: e for e, i in surf.edge_of_gem.items()}
    ccw = surf.scheme.rot[7]
    assert tuple(g.edges[gem_of[h >> 1]][2] for h in ccw) == ccw_colors

    scheme = surf.scheme
    index = {name: _chord_index(scheme, [_to_walk(surf, c) for c in curves])
             for name, curves in d.systems()}
    assert _intersection_columns(scheme, index["alpha"], index["beta"],
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
    """Each corridor's traversals from the lowest lane up, by _strand_order."""
    place = _strand_order(scheme, walks)
    first = [0]
    for walk in walks:
        first.append(first[-1] + len(walk))
    return {e: sorted(travs, key=lambda tr: place[first[tr[0]] + tr[1]])
            for e, travs in corridors.items()}


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
            walks = {sys_name: [_to_walk(surf, c) for c in curves]
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
        index = {k: _chord_index(scheme, ws) for k, ws in walks.items()}
        for ka, wa in walks.items():
            selfs = _self_intersections(scheme, index[ka], len(wa))
            assert selfs == [_reference_intersection(surf, w, w, pos, deg_of)
                             for w in wa]
            for kb in dict.fromkeys(("alpha", "beta", "gamma", ka)):
                wb = walks[kb]
                cols = _intersection_columns(scheme, index[ka], index[kb],
                                             len(wb))
                for j, w_j in enumerate(wb):
                    assert all(cols[j].values())
                    for i, w_i in enumerate(wa):
                        ref = _reference_intersection(surf, w_i, w_j, pos,
                                                      deg_of)
                        assert cols[j].get(i, 0) == ref, (ka, kb, i, j)
                        assert _signed_intersection(scheme, w_i, w_j) == ref


def test_region_count_and_lanes_match_references(datadir_gem, monkeypatch):
    corpus = _verifier_corpus(datadir_gem)
    # verify_diagram runs on the corpus walks as they are, so its cut
    # entries can be compared system by system
    monkeypatch.setattr(diagrams, "_to_walk", lambda surf, walk: walk)
    seen = set()
    split = []
    for surf, walks in corpus:
        scheme = surf.scheme
        record = verify_diagram(types.SimpleNamespace(
            surface=surf, genus=(2 - surf.chi) // 2, systems=walks.items))
        for name, ws in walks.items():
            entry = record.checks["cut"]["systems"][name]
            corridors = corridor_map(ws)
            assert (_lanes_by_place(scheme, ws, corridors)
                    == lane_orders(scheme, ws, corridors))
            marks, chords = _resolve(scheme, ws)
            resolved, witness = _crossing_free(marks, chords)
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


def test_strand_order_matches_comparator_on_random_welds(datadir_gem):
    """Seeded random-weld sums verify, with the comparator's lanes."""
    rng = random.Random(29)
    systems = 0
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
            scheme = d.surface.scheme
            for _, curves in d.systems():
                ws = [_to_walk(d.surface, c) for c in curves]
                corridors = corridor_map(ws)
                assert (_lanes_by_place(scheme, ws, corridors)
                        == lane_orders(scheme, ws, corridors))
                systems += 1
    assert systems == 144


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
    rng = random.Random(11)
    for _ in range(300):
        core = [rng.randrange(12) for _ in range(rng.randrange(0, 8))]
        wrap = [rng.randrange(12) for _ in range(rng.randrange(0, 6))]
        walk = wrap + core + [h ^ 1 for h in reversed(wrap)]
        assert _reduce(walk, lambda h: h ^ 1) == tuple(
            _old_reduce(walk, lambda h: h ^ 1))

        kinds = [("e", rng.randrange(4), rng.choice((1, -1))) if
                 rng.random() < 0.8 else ("sc", rng.randrange(2))
                 for _ in range(len(core) + len(wrap))]
        head = kinds[:len(wrap)]
        steps = (head + kinds[len(wrap):]
                 + [s if s[0] == "sc" else (s[0], s[1], -s[2])
                    for s in reversed(head)])
        assert _reduce(steps, diagrams._step_inverse) == tuple(_old_reduce(
            steps, lambda s: s if s[0] == "sc" else (s[0], s[1], -s[2]),
            keep=lambda s: s[0] != "sc"))
