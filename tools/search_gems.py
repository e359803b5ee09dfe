"""Exhaustive search for small catalog gems used as test fixtures.

Eight-vertex bipartite candidates are enumerated by fixing the color-0
matching and running over all K44 matchings for the remaining colors.
Filters are the library's own certifiers (sphere residues, homology,
fundamental group), so a hit is reproducible from a clean checkout:

    python3 tools/search_gems.py [--write]

Three fixture roles are collected from one enumeration pass:
  * a closed manifold gem, simply connected with second Betti number 1
    and every vertex link a proven sphere;
  * a pseudomanifold with the same homology but two non-sphere links,
    as a membership-rejection case;
  * a singular-apex gem whose unique singular link has H1 = Z, the
    boundary-role fixture (colors relabeled so the apex is 4).
Found gems are written to tests/data/ in canonical text form.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gemtrisect.cli import GemFile, gem_text              # noqa: E402
from gemtrisect.graphs import (GemError, build_graph, residues,
                               residue_subgem)             # noqa: E402
from gemtrisect.homology import homology, pi1_presentation  # noqa: E402
from gemtrisect.validation import (all_surfaces_spheres,
                                   classify_colors)         # noqa: E402

NV = 8
LEFT = list(range(0, NV, 2))     # bipartition classes: evens and odds
RIGHT = list(range(1, NV, 2))


def matchings():
    """All K44 perfect matchings as vertex pair lists, lexicographic."""
    out = []
    for perm in itertools.permutations(range(len(LEFT))):
        out.append(tuple((LEFT[i], RIGHT[perm[i]]) for i in range(len(LEFT))))
    return out


def assemble(n, colored_matchings):
    edges = []
    for c, pairs in enumerate(colored_matchings):
        for u, v in pairs:
            edges.append((u, v, c))
    return build_graph(n, edges)


def search_3manifold(h1_rank, h1_torsion=()):
    """First 8-vertex 4-colored closed-3-manifold gem with given H1."""
    ms = matchings()
    fixed = ms[0]
    for m1 in ms:
        for m2 in ms:
            for m3 in ms:
                try:
                    g = assemble(3, (fixed, m1, m2, m3))
                except GemError:
                    continue
                if not all_surfaces_spheres(g):
                    continue
                h = homology(g)
                h1 = h[1]
                if h1.rank != h1_rank or tuple(h1.torsion) != tuple(h1_torsion):
                    continue
                return g
    return None


def enumerate_surface_spherical():
    """All order-8 5-colored bipartite gems with spherical 3-residues.

    Color 0 is pinned to the identity matching; every bipartite gem on
    eight vertices has a relabeling of this shape, so only the isomorph
    count is reduced, not the catalog.
    """
    ms = matchings()
    fixed = ms[0]
    for m1 in ms:
        for m2 in ms:
            # cheap prefilter: the colors 0,1,2 alone must already
            # look spherical on every triple
            try:
                probe = assemble(2, (fixed, m1, m2))
            except GemError:
                continue
            if not all_surfaces_spheres(probe):
                continue
            for m3 in ms:
                for m4 in ms:
                    try:
                        g = assemble(4, (fixed, m1, m2, m3, m4))
                    except GemError:
                        continue
                    if all_surfaces_spheres(g):
                        yield g


def _swap(c, apex):
    return {apex: 4, 4: apex}.get(c, c)


def relabel(g, apex):
    if apex == 4:
        return g
    return build_graph(g.n, [(u, v, _swap(c, apex)) for u, v, c in g.edges])


def _match_bounded(g):
    """Relabeled gem when exactly one link is non-spherical with H1=Z."""
    counts = {}
    for c in g.colors:
        key = frozenset(x for x in g.colors if x != c)
        counts[c] = residues(g, key)
    candidates = []
    for c, res in counts.items():
        if len(res) != 1:
            continue
        sub, _, _ = residue_subgem(g, res[0])
        h1 = homology(sub)[1]
        if h1.rank == 1 and not h1.torsion:
            candidates.append(c)
    if not candidates:
        return None
    singular, undetermined, _ = classify_colors(g)
    for c in candidates:
        if singular == {c} and not undetermined:
            return relabel(g, c)
    return None


def fixture_scan():
    """One pass over the 5-colored enumeration, collecting all roles."""
    found = {"closed": None, "pseudo": None, "bounded": None}
    for g in enumerate_surface_spherical():
        if all(found.values()):
            break
        if found["bounded"] is None:
            hit = _match_bounded(g)
            if hit is not None:
                found["bounded"] = hit
        if found["closed"] is not None and found["pseudo"] is not None:
            continue
        role = _closed_or_pseudo(g)
        if role is not None and found[role] is None:
            found[role] = g
    return found


def _closed_or_pseudo(g):
    """"closed", "pseudo" or None: the role filters of those fixtures.

    Both roles need H1 = 0, H2 = Z and a presentation of pi1 with no
    generators left; "closed" then needs every link a proven sphere,
    "pseudo" exactly two singular colors.
    """
    h = homology(g)
    if h[1].rank or h[1].torsion or h[2].rank != 1 or h[2].torsion:
        return None
    if pi1_presentation(g).num_generators != 0:
        return None
    singular, undetermined, _ = classify_colors(g)
    if not singular and not undetermined:
        return "closed"
    if len(singular) == 2:
        return "pseudo"
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--write", action="store_true",
                    help="write fixtures into tests/data/")
    ns = ap.parse_args()
    data_dir = os.path.join(os.path.dirname(__file__), "..", "tests", "data")

    hits = []

    g_s1s2 = search_3manifold(h1_rank=1)
    if g_s1s2 is None:
        print("no H1=Z closed-3-manifold gem at order 8")
    else:
        print("H1=Z 3-manifold gem:", [tuple(e) for e in g_s1s2.edges])
        gf3 = GemFile(3, "order-8 H1=Z closed 3-manifold", {}, g_s1s2)
        hits.append(("s1s2_3manifold.gem", gf3))

    found = fixture_scan()
    if found["closed"] is not None:
        print("closed manifold gem:",
              [tuple(e) for e in found["closed"].edges])
        hits.append(("projective_plane_like.gem", GemFile(
            4, "order-8 simply-connected closed, second betti 1", {},
            found["closed"])))
    if found["pseudo"] is not None:
        print("pseudomanifold gem:", [tuple(e) for e in found["pseudo"].edges])
        hits.append(("two_singular_colors.gem", GemFile(
            4, "order-8 pseudomanifold, two singular vertex links", {},
            found["pseudo"])))
    if found["bounded"] is not None:
        print("bounded-role gem:", [tuple(e) for e in found["bounded"].edges])
        hits.append(("bounded_s1s2.gem", GemFile(
            4, "order-8 singular apex, circle-bundle boundary",
            {"boundary": "#1(S1xS2)"}, found["bounded"])))
    for role in ("closed", "pseudo", "bounded"):
        if found[role] is None:
            print("no %s fixture at order 8" % role)

    if ns.write:
        os.makedirs(data_dir, exist_ok=True)
        for fname, gf in hits:
            path = os.path.join(data_dir, fname)
            with open(path, "w") as fh:
                fh.write(gem_text(gf))
            print("wrote", path)


if __name__ == "__main__":
    main()
