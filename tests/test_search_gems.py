"""The fixture search tool's role filters, run on the committed fixtures.

tools/search_gems.py rebuilds tests/data from an enumeration that takes
tens of seconds, so these tests load it as a module and put each
fixture through the filter of its role only, enumerating nothing.
"""

import importlib.util
import pathlib

import pytest

from conftest import fixture_graph

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "search_gems.py"


@pytest.fixture(scope="module")
def search_gems():
    spec = importlib.util.spec_from_file_location("search_gems", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_closed_fixture_passes_closed_role(search_gems):
    g = fixture_graph("projective_plane_like.gem")
    assert search_gems.all_surfaces_spheres(g)
    assert search_gems._closed_or_pseudo(g) == "closed"


def test_pseudomanifold_fixture_passes_pseudo_role(search_gems):
    g = fixture_graph("two_singular_colors.gem")
    assert search_gems.all_surfaces_spheres(g)
    assert search_gems._closed_or_pseudo(g) == "pseudo"


def test_bounded_fixture_passes_bounded_role_unchanged(search_gems):
    g = fixture_graph("bounded_s1s2.gem")
    assert search_gems.all_surfaces_spheres(g)
    # the fixture is stored with its singular color as the apex, so the
    # filter hands back the graph without relabelling it
    assert search_gems._match_bounded(g) is g
    # the closed and pseudomanifold gems have no singular apex
    for name in ("projective_plane_like.gem", "two_singular_colors.gem"):
        assert search_gems._match_bounded(fixture_graph(name)) is None
