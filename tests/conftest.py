"""Shared fixtures: small named gems and seeded random corpora."""

import pathlib
import random

import pytest

DATA_DIR = pathlib.Path(__file__).parent / "data"

from gemtrisect.graphs import (
    blob_insert,
    build_graph,
    connected_sum,
    is_bipartite,
    residue_subgem,
    residues,
    standard_sphere_gem,
)


@pytest.fixture
def s4_gem():
    return standard_sphere_gem(4)


@pytest.fixture
def s3_gem():
    return standard_sphere_gem(3)


@pytest.fixture
def blob4_gem(s4_gem):
    """Order-4 gem: blob inserted on the color-4 edge of the sphere gem."""
    return blob_insert(s4_gem, s4_gem.incident(0, 4))


@pytest.fixture
def datadir_gem():
    """Loader for the frozen gem files under tests/data."""
    from gemtrisect.cli import parse_gem

    def load(name):
        return parse_gem((DATA_DIR / name).read_bytes())

    return load


def torus_gem():
    """K33 with the Latin-square coloring: the order-6 torus gem."""
    edges = [(i, 3 + j, (i + j) % 3) for i in range(3) for j in range(3)]
    return build_graph(2, edges)


def prism_gem():
    """Properly colored triangular prism: Klein bottle, non-bipartite."""
    edges = [(0, 1, 0), (2, 5, 0), (3, 4, 0),
             (1, 2, 1), (0, 3, 1), (4, 5, 1),
             (0, 2, 2), (1, 4, 2), (3, 5, 2)]
    return build_graph(2, edges)


def k4_gem():
    """K4 properly 3-colored: projective plane, half-integral genus."""
    edges = [(0, 1, 0), (2, 3, 0), (0, 2, 1), (1, 3, 1), (0, 3, 2), (1, 2, 2)]
    return build_graph(2, edges)


def fixture_graph(name):
    """The graph of a frozen gem file under tests/data."""
    from gemtrisect.cli import parse_gem

    return parse_gem((DATA_DIR / name).read_bytes()).graph


def shuffled(g, rng):
    """g with its vertex ids permuted by rng."""
    perm = list(range(g.nv))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v], c) for u, v, c in g.edges])


def weld(g, h, rng, at=None):
    """connected_sum of g and h at seeded (or given) opposite-class ends."""
    ok_g, cls_g = is_bipartite(g)
    ok_h, cls_h = is_bipartite(h)
    v1, v2 = at if at else (rng.randrange(g.nv), rng.randrange(h.nv))
    if ok_g and ok_h and cls_g[v1] == cls_h[v2]:
        v2 = next(w for w in range(h.nv) if cls_h[w] != cls_g[v1])
    return connected_sum(g, h, v1, v2)


def complementary_subgems(g):
    """Sub-gems of the residues missing one color, color by color."""
    for c in g.colors:
        for res in residues(g, frozenset(x for x in g.colors if x != c)):
            yield residue_subgem(g, res)[0]


def grow_gem(g, steps, rng, colors=None, allow_sum=True):
    """Apply random blob insertions / sphere sums to g.

    colors restricts which edge colors may receive a blob; None allows
    all of them.
    """
    sphere = standard_sphere_gem(g.n)
    for _ in range(steps):
        if allow_sum and rng.random() < 0.25:
            ok, cls = is_bipartite(g)
            v = rng.randrange(g.nv)
            w = 0 if not ok or cls[v] == 1 else 1
            g = connected_sum(g, sphere, v, w)
        else:
            choices = [i for i, (_, _, c) in enumerate(g.edges)
                       if colors is None or c in colors]
            g = blob_insert(g, rng.choice(choices))
    return g


def embedding_corpus(count=60, seed=20260814, max_steps=8):
    """Random gems grown from the sphere gem, any blob color."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = standard_sphere_gem(4)
        out.append(grow_gem(g, rng.randrange(1, max_steps + 1), rng))
    return out


def pipeline_corpus(count=60, seed=97, max_steps=8):
    """Random gems with blobs kept off color 4.

    Blobs on a color-4 edge split the complement of color 4 into two
    pieces, which leaves the class of interest; these gems all keep a
    single such residue and stay certifiable.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = standard_sphere_gem(4)
        steps = rng.randrange(1, max_steps + 1)
        out.append(grow_gem(g, steps, rng, colors=(0, 1, 2, 3)))
    return out


def s1s3_welds(count=12, seed=1517, copies=(1, 4)):
    """Shuffled random welds of s1s3.gem with itself and both closed
    fixtures: closed gems with pi1 != 1, whose sweep stabilizes one
    square per S1 x S3 summand."""
    rng = random.Random(seed)
    s13 = fixture_graph("s1s3.gem")
    others = [s13] + [fixture_graph(name) for name in
                      ("projective_plane_like.gem", "nonzero_forest.gem")]
    out = []
    for _ in range(count):
        g = s13
        for _ in range(rng.randrange(*copies)):
            g = weld(g, rng.choice(others), rng)
        out.append(shuffled(g, rng))
    return out


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance gate lines after the run summary."""
    import sys

    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "GATE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance gate")
        for line in lines:
            terminalreporter.write_line(line)
