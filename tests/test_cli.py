"""File formats, pipeline driver, caching, batch runs, and the CLI."""

import json
import pathlib
import random
import re
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemtrisect import __version__, cli
from gemtrisect.cli import (
    EXIT_INVALID,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_NOT_MEMBER,
    EXIT_OK,
    GemFile,
    ParseError,
    batch,
    gem_json_bytes,
    gem_text,
    main,
    normalize_options,
    parse_gem,
    relabel_apex,
    run_cached,
    run_key,
    run_pipeline,
)
from gemtrisect.graphs import GemError
from gemtrisect.validation import parse_attestations

import reference
from conftest import pipeline_corpus

DATA = pathlib.Path(__file__).parent / "data"
ROOT = pathlib.Path(__file__).parents[1]

SPHERE_TEXT = """\
# the two-vertex gem
gem n=4

name round
attest simply-connected=yes
0 1 0
0 1 1
0 1 2
0 1 3
0 1 4
"""

EMPTY_DIAGRAM = (b'{"alpha":[],"beta":[],"gamma":[],"genus":0,"k":0,'
                 b'"permutation":[0,1,2,3,4]}\n')


def test_pyproject_version_is_the_package_version():
    # a version bump touches both files; a regex, as Python 3.10 has no
    # tomllib
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    found = re.findall(r'^version\s*=\s*"([^"]+)"\s*$', project.group(1),
                       re.M)
    assert found == [__version__]


def test_parse_text():
    gf = parse_gem(SPHERE_TEXT.encode())
    assert gf.n == 4
    assert gf.name == "round"
    assert gf.attestations == {"simply-connected": "yes"}
    assert gf.graph.nv == 2
    assert sorted(gf.graph.edges) == [(0, 1, c) for c in range(5)]


def test_parse_json_equivalent():
    blob = json.dumps({
        "n": 4, "name": "round",
        "attest": {"simply-connected": "yes"},
        "edges": [[0, 1, c] for c in range(5)],
    })
    a = parse_gem(SPHERE_TEXT.encode())
    b = parse_gem(blob.encode())
    assert gem_text(a) == gem_text(b)
    assert run_key(a, normalize_options({})) == run_key(
        b, normalize_options({}))


_SPHERE_EDGES = [[0, 1, c] for c in range(5)]


@pytest.mark.parametrize("fields", [
    {"name": "a\nattest boundary=#1(S1xS2)"},
    {"name": ["a"]},
    {"name": ""},
    {"attest": {"boundary": "#1(S1xS2)\rname a"}},
    {"attest": {"boundary=#1(S1xS2)": ""}},
    {"attest": {"simply-connected": True}},
], ids=["name-line-break", "list-name", "empty-name", "value-line-break",
        "key-with-equals", "bool-value"])
def test_json_fields_must_fit_one_text_line(tmp_path, capsys, fields):
    # gem_text writes the name and each attestation as one line; a JSON
    # field that is not one such line could share another gem's run_key
    data = json.dumps(dict(fields, n=4, edges=_SPHERE_EDGES))
    with pytest.raises(ParseError):
        parse_gem(data.encode())
    assert main([_write(tmp_path, "bad.gem", data)]) == EXIT_INVALID
    assert "error exit=1" in capsys.readouterr().out


def test_json_and_text_gems_share_a_key_only_when_they_agree():
    text = parse_gem(b"gem n=4\nname a\nattest boundary=#1(S1xS2)\n"
                     b"0 1 0\n0 1 1\n0 1 2\n0 1 3\n0 1 4\n")
    same = parse_gem(json.dumps({"n": 4, "name": "a", "edges": _SPHERE_EDGES,
                                 "attest": {"boundary": "#1(S1xS2)"}}).encode())
    plain = parse_gem(json.dumps({"n": 4, "name": "a",
                                  "edges": _SPHERE_EDGES}).encode())
    opts = normalize_options({})
    assert run_key(text, opts) == run_key(same, opts) != run_key(plain, opts)
    records = [run_pipeline(gf)[0].as_dict() for gf in (text, same, plain)]
    for rec in records:
        del rec["timings"]
    assert records[0] == records[1] != records[2]
    # the attested boundary contradicts the proven 3-sphere
    assert records[0]["report"]["conflicts"]


def test_serializations_round_trip(datadir_gem):
    for name in ("projective_plane_like.gem", "bounded_s1s2.gem",
                 "nonzero_forest.gem"):
        gf = datadir_gem(name)
        again = parse_gem(gem_text(gf).encode())
        assert again.graph.edges == gf.graph.edges
        assert again.attestations == gf.attestations
        assert again.name == gf.name
        third = parse_gem(gem_json_bytes(gf))
        assert gem_text(third) == gem_text(gf)


# -- the text parser against the line-by-line oracle ----------------------

def _parse_outcome(parse, data):
    """The GemFile's fields, or the error's type, message and line."""
    try:
        gf = parse(data)
    except GemError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None))
    return (gf.n, gf.name, gf.attestations, gf.graph.edges)


def _oracle_corpus():
    graphs = [parse_gem((DATA / name).read_bytes()).graph
              for name in ("projective_plane_like.gem", "bounded_s1s2.gem",
                           "nonzero_forest.gem", "two_singular_colors.gem")]
    return graphs + pipeline_corpus(count=4, seed=5)


_ORACLE_GEMS = _oracle_corpus()
# a corrupted token: int() takes the first three, 5000 digits pass its limit
_BAD_TOKENS = ("+1", "1_0", "١", "7" * 5000, "x")


def _render_gem(seed):
    """A seeded gem as text: blank, comment, name and attest lines
    anywhere, extra spaces, CRLF, and at times one corrupted token or
    field count."""
    rng = random.Random(seed)
    g = rng.choice(_ORACLE_GEMS)
    edges = list(g.edges)
    rng.shuffle(edges)
    lines = [["%d" % x for x in e] for e in edges]
    if rng.random() < 0.4:
        fields = rng.choice(lines)
        what = rng.randrange(len(_BAD_TOKENS) + 2)
        if what < len(_BAD_TOKENS):
            fields[rng.randrange(3)] = _BAD_TOKENS[what]
        elif what == len(_BAD_TOKENS):
            fields.pop()
        else:
            fields.append("0")
    text = [" ".join(f) for f in lines]
    if rng.random() < 0.5:
        text = [(" " * rng.randrange(2) + line.replace(" ", rng.choice(
            (" ", "  ", "\t"))) + " " * rng.randrange(2)) for line in text]
    text.insert(0, "gem n=%d" % g.n)
    for _ in range(rng.randrange(4)):
        extra = rng.choice(("", "   ", "# a comment", "name seed %d" % seed,
                            "attest sphere=0", "attest boundary=#0(S1xS2)"))
        # position 0 puts the line before the header
        text.insert(rng.randrange(len(text) + 1), extra)
    end = rng.choice(("\n", "\r\n"))
    return (end.join(text) + end * rng.randrange(2)).encode()


def _parse_like_oracle(seed):
    data = _render_gem(seed)
    assert (_parse_outcome(parse_gem, data)
            == _parse_outcome(reference.parse_text, data.decode())), seed


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_text_parser_matches_line_oracle(seed):
    _parse_like_oracle(seed)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_text_parser_matches_line_oracle_at_length(seed):
    _parse_like_oracle(seed)


def test_input_selects_the_parse_path(monkeypatch):
    # a plain body is split in one pass after the lines before it are
    # scanned, even when those lines or the graph are then refused;
    # anything else in the body sends the whole text through the line
    # scan, as do the benchmark's malformed files with a bad field or
    # field count
    scanned = []
    scan = cli._scan_lines
    monkeypatch.setattr(cli, "_scan_lines",
                        lambda text: scanned.append(text) or scan(text))
    plain = (DATA / "bounded_s1s2.gem").read_text()
    head = plain[:plain.index("\n0 ") + 1]
    split = [(plain, head), ("gem n=4\n0 1 0\n0 1 1\n", "gem n=4\n"),
             ("gem n=4\n0 0 0\n", "gem n=4\n"),
             ("gam n=4\n0 1 0\n", "gam n=4\n")]
    scanned_whole = ["gem n=4\n0 1 x\n",
                     "gem n=4\n0 1 0 7\n", "", plain.replace("\n", "\r\n"),
                     plain + "# end\n", plain.replace("\n0 1 0", "\n0  1 0")]
    for text, scans in split + [(t, t) for t in scanned_whole]:
        scanned.clear()
        assert (_parse_outcome(parse_gem, text.encode())
                == _parse_outcome(reference.parse_text, text))
        assert scanned == [scans], text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_gem(b"gum n=4\n0 1 0\n")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_gem(b"gem n=4\n0 1\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_gem(b"gem n=4\n0 one 2\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_gem(b"gem n=4\nattest nokey\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_gem(b"# nothing\n")
    with pytest.raises(ParseError):
        parse_gem(b"\xff\xfe")
    with pytest.raises(ParseError) as e:
        parse_gem(b"gem n=" + b"7" * 5000 + b"\n")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_gem(b"{broken json")
    with pytest.raises(ParseError):
        parse_gem(b'{"n": 4, "edges": ' + b"[" * 200000)
    with pytest.raises(ParseError):
        parse_gem(b'{"n": 4}')
    with pytest.raises(ParseError):
        parse_gem(b'{"n": 4, "edges": [[0, 1]]}')
    with pytest.raises(ParseError):
        parse_gem(b'{"n": 4, "edges": [], "attest": 7}')
    for data in (b'{"n": 4, "edges": 5}', b'{"n": 4, "edges": null}'):
        with pytest.raises(ParseError, match='"edges" must be a list'):
            parse_gem(data)


def test_coloring_violations_rejected():
    with pytest.raises(GemError):
        parse_gem(b"gem n=4\n0 1 0\n0 1 0\n0 1 1\n0 1 2\n0 1 3\n0 1 4\n")
    with pytest.raises(GemError):
        parse_gem(b"gem n=4\n0 0 0\n")
    with pytest.raises(GemError):
        parse_gem(b"gem n=4\n0 1 9\n")


def test_inline_hash_is_not_a_comment():
    # attestation values contain "#", so only whole-line comments exist
    gf = parse_gem(b"gem n=4\nattest boundary=#1(S1xS2)\n"
                   b"0 1 0\n0 1 1\n0 1 2\n0 1 3\n0 1 4\n")
    assert gf.attestations == {"boundary": "#1(S1xS2)"}


def test_run_pipeline_sphere_defaults():
    gf = parse_gem(SPHERE_TEXT.encode())
    rec, dgm = run_pipeline(gf)
    assert rec.exit_code == EXIT_OK
    assert rec.error is None
    d = rec.as_dict()
    assert d["report"]["gs4_member"] is True
    assert d["report"]["closed"] is True
    assert d["certificate"]["genus"] == 0
    assert d["certificate"]["k"] == 0
    assert d["certificate"]["eps"] == [0, 1, 2, 3, 4]
    assert d["violations"] == []
    assert all(d["ledger"][f] == 0 for f in
               ("rho_eps_gamma", "heegaard_upper", "g_T_upper"))
    assert d["diagram_ref"]["verified"] is True
    assert d["version"] == __version__
    assert d["input_hash"] == run_key(gf, normalize_options({}))
    assert set(d["timings"]) >= {"validate", "sweep", "ledger", "diagram",
                                 "total"}
    assert dgm == EMPTY_DIAGRAM


def test_pipeline_deterministic(datadir_gem):
    gf = datadir_gem("projective_plane_like.gem")
    a, da = run_pipeline(gf)
    b, db = run_pipeline(gf)
    da_dict, db_dict = a.as_dict(), b.as_dict()
    da_dict.pop("timings"), db_dict.pop("timings")
    assert da_dict == db_dict
    assert da == db
    assert a.input_hash == b.input_hash


def test_sweep_is_argmin_over_fixed_eps(datadir_gem):
    from gemtrisect.embedding import cyclic_permutations
    gf = datadir_gem("projective_plane_like.gem")
    swept, _ = run_pipeline(gf)
    runs = []
    for eps in cyclic_permutations(4):
        rec, _ = run_pipeline(gf, {"eps": tuple(eps.seq)})
        assert rec.exit_code == EXIT_OK
        c = rec.as_dict()["certificate"]
        runs.append((c["genus"], c["k"], tuple(c["eps"]), c))
    best = min(runs)[3]
    assert swept.as_dict()["certificate"] == best


def test_fixed_eps_disables_sweep():
    opts = normalize_options({"eps": (0, 1, 3, 2, 4)})
    assert opts["eps"] == (0, 1, 3, 2, 4)
    assert normalize_options(opts) == opts
    with pytest.raises(GemError):
        normalize_options({"bogus": 1})
    with pytest.raises(GemError):
        normalize_options({"mode": "sideways"})
    # sweep follows from eps, so it is no run option of its own
    for value in (True, False):
        with pytest.raises(GemError, match="unknown option 'sweep'"):
            normalize_options({"sweep": value})
    # records and cache keys still carry it, with the bytes they had
    # when it was an option
    gf = parse_gem(SPHERE_TEXT)
    swept, _ = run_pipeline(gf)
    fixed, _ = run_pipeline(gf, opts)
    assert swept.as_dict()["options"]["sweep"] is True
    assert fixed.as_dict()["options"]["sweep"] is False
    assert run_key(gf, normalize_options({})) == (
        "1a657d59e3f34e6b295994be5b06b9b8ccb56f485a5e0e546a56cd479420fe6a")
    assert run_key(gf, opts) == (
        "4540d123d894d77f06189eeba3cde2e386a48dd70534398721848d31f9405bb0")


@pytest.mark.parametrize("options", [
    {"budget": "3"}, {"budget": True}, {"budget": 2.0},
    {"eps": (0, 1, 2, 3, "x")}, {"eps": (0, 1, 2, 3, True)}, {"eps": 5},
    {"sweep": "no"}, {"sweep": 1}, {"apex_color": 2.0},
    {"apex_color": True}, {"budget": -1}, {"budget": -3},
], ids=["budget-str", "budget-bool", "budget-float", "eps-str", "eps-bool",
        "eps-int", "sweep-str", "sweep-int", "apex-float", "apex-bool",
        "budget-minus-1", "budget-minus-3"])
def test_ill_typed_options_raise_gem_error(options, tmp_path):
    path = tmp_path / "s.gem"
    path.write_text(SPHERE_TEXT)
    gf = parse_gem(SPHERE_TEXT)
    with pytest.raises(GemError):
        run_pipeline(gf, options)
    with pytest.raises(GemError):
        batch([str(path)], options)


def test_negative_minimize_k_exits_invalid(tmp_path, capsys):
    # a negative budget would run as 0 under a cache key of its own
    ok = _write(tmp_path, "ok.gem", SPHERE_TEXT)
    assert main([ok, "--minimize-k", "-3"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("error: budget must be a non-negative integer"
            in captured.err)


def test_int_valued_options_keep_their_records(datadir_gem):
    gf = datadir_gem("projective_plane_like.gem")

    def content(options):
        d = run_pipeline(gf, options)[0].as_dict()
        del d["timings"]
        return d

    fixed = content({"eps": (0, 1, 2, 3, 4), "budget": 2})
    assert fixed["exit_code"] == EXIT_OK
    assert content({"eps": [0, 1, 2, 3, 4], "budget": 2}) == fixed
    assert fixed["options"]["eps"] == [0, 1, 2, 3, 4]
    assert fixed["options"]["budget"] == 2


@pytest.mark.parametrize("eps", [(0, 0, 1, 2, 4), (0, 1, 2, 3),
                                 (0, 1, 2, 3, 4, 5)])
def test_bad_fixed_eps_lands_in_record(eps, s4_gem):
    rec, dgm = run_pipeline(GemFile(4, None, {}, s4_gem), {"eps": eps})
    assert rec.exit_code == EXIT_INVALID
    assert rec.error and dgm is None
    assert rec.as_dict()["report"]["gs4_member"] is True


def test_modes(datadir_gem):
    bounded = datadir_gem("bounded_s1s2.gem")
    rec, _ = run_pipeline(bounded)
    assert rec.exit_code == EXIT_OK
    assert rec.as_dict()["diagram_ref"]["mode"] == "g-trisection"
    rec2, _ = run_pipeline(bounded, {"mode": "gts"})
    assert rec2.as_dict()["diagram_ref"]["mode"] == "g-trisection"
    rec3, _ = run_pipeline(bounded, {"mode": "closed"})
    assert rec3.exit_code == EXIT_INVALID
    assert "not proven closed" in rec3.error

    closed = datadir_gem("projective_plane_like.gem")
    rec4, _ = run_pipeline(closed, {"mode": "closed"})
    assert rec4.exit_code == EXIT_OK
    assert rec4.as_dict()["diagram_ref"]["mode"] == "trisection"


def test_non_member_exit(datadir_gem):
    rec, dgm = run_pipeline(datadir_gem("two_singular_colors.gem"))
    assert rec.exit_code == EXIT_NOT_MEMBER
    assert dgm is None
    assert rec.as_dict()["report"]["gs4_member"] is False

    rec2, _ = run_pipeline(datadir_gem("s1s2_3manifold.gem"))
    assert rec2.exit_code == EXIT_INVALID   # wrong dimension


def test_split_apex_exit(s4_gem, blob4_gem):
    gf = GemFile(4, None, {}, blob4_gem)
    rec, _ = run_pipeline(gf)
    assert rec.exit_code == EXIT_NOT_MEMBER
    assert "need exactly one" in rec.error


def test_internal_failure_maps_to_exit_3(monkeypatch, datadir_gem):
    _raising_assembly(monkeypatch)
    rec, dgm = run_pipeline(datadir_gem("projective_plane_like.gem"))
    assert rec.exit_code == EXIT_INTERNAL
    assert "diagram assembly failed" in rec.error
    assert dgm is None
    assert rec.as_dict()["certificate"] is not None


def _count_pi1_builds(monkeypatch):
    """The gems whose pi1 _build_pi1 builds from now on, in call order."""
    import gemtrisect.homology as homology

    built = []
    build = homology._build_pi1
    monkeypatch.setattr(homology, "_build_pi1",
                        lambda g: built.append(g) or build(g))
    return built


@pytest.mark.parametrize("name, attest, dims", [
    # the boundary is a proven 3-sphere, whose H1 = 0 the proof stored,
    # and the verified closed diagram has some k_i = 0, which proves
    # pi1 = 1: no pi1 is built at all
    ("projective_plane_like.gem", {}, []),
    ("projective_plane_like.gem", {"boundary": "#0(S1xS2)"}, []),
    # the boundary verdict falls back to H1, whose pi1 boundary_h1 reuses;
    # a bounded run proves nothing about pi1, so the gem's is built
    ("bounded_s1s2.gem", {}, [3, 4]),
], ids=["plain", "boundary-attested", "boundary-verdict-from-h1"])
def test_pipeline_builds_pi1_once_per_graph(datadir_gem, monkeypatch,
                                            name, attest, dims):
    built = _count_pi1_builds(monkeypatch)
    gf = datadir_gem(name)
    gf = GemFile(gf.n, gf.name, dict(gf.attestations, **attest), gf.graph)
    rec, dgm = run_pipeline(gf)
    assert rec.exit_code == EXIT_OK and dgm is not None
    if attest:
        assert rec.report["attestations_used"] == ["boundary=#0(S1xS2)"]
    # the ledger and the simply-connected flag share one pi1 of the gem,
    # built only when the diagram did not prove it trivial, and one H1
    # of its boundary sub-gem, built only when not proven S^3
    assert sorted(g.n for g in built) == dims


def _failing_verification(monkeypatch):
    """Make every assembled diagram fail its pairing check."""
    assemble = cli.assemble_diagram

    def failing(*args):
        d = assemble(*args)
        d.record.checks["pairing_ab"]["pass"] = False
        d.record.ok = False
        return d

    monkeypatch.setattr(cli, "assemble_diagram", failing)


@pytest.mark.parametrize("name, options, failing, exit_code", [
    ("two_singular_colors.gem", {}, False, EXIT_NOT_MEMBER),
    ("projective_plane_like.gem", {"mode": "gts"}, False, EXIT_OK),
    ("projective_plane_like.gem", {"eps": [0, 1, 2, 3]}, False,
     EXIT_INVALID),
    ("bounded_s1s2.gem", {"mode": "closed"}, False, EXIT_INVALID),
    ("projective_plane_like.gem", {}, True, EXIT_INTERNAL),
], ids=["non-member", "gts", "bad-eps", "not-closed", "failed-diagram"])
def test_pi1_is_built_where_no_diagram_proves_it(datadir_gem, monkeypatch,
                                                 name, options, failing,
                                                 exit_code):
    built = _count_pi1_builds(monkeypatch)
    if failing:
        _failing_verification(monkeypatch)
    rec, _ = run_pipeline(datadir_gem(name), options)
    assert rec.exit_code == exit_code
    # the gem's pi1, built once, settles the report's flag on every exit
    # (a non-sphere residue's H1 builds the pi1 of its 3-dimensional
    # sub-gem)
    assert [g.n for g in built if g.n == 4] == [4]
    assert rec.report["simply_connected"] is True


def _violated_ledger(monkeypatch):
    real = cli.bound_ledger

    def violated(*args, **kwargs):
        ledger = real(*args, **kwargs)
        ledger.rk_lower = ledger.rk_upper + 1
        return ledger

    monkeypatch.setattr(cli, "bound_ledger", violated)


def _raising_assembly(monkeypatch):
    def boom(*args):
        raise GemError("synthetic assembly failure")

    monkeypatch.setattr(cli, "assemble_diagram", boom)


@pytest.mark.parametrize("ledger, diagram, error", [
    (True, None, "bound ledger violated"),
    (False, _raising_assembly, "diagram assembly failed"),
    (False, _failing_verification, "diagram verification failed"),
    (True, _raising_assembly, "bound ledger violated"),
    (True, _failing_verification, "bound ledger violated"),
], ids=["ledger", "assembly", "verification", "ledger-and-assembly",
        "ledger-and-verification"])
def test_ledger_violation_wins_over_a_diagram_failure(datadir_gem,
                                                      monkeypatch, ledger,
                                                      diagram, error):
    # the ledger runs after the diagram, but its violation is reported
    # first and drops diagram_ref; a diagram failure keeps the ledger
    if ledger:
        _violated_ledger(monkeypatch)
    if diagram:
        diagram(monkeypatch)
    rec, dgm = run_pipeline(datadir_gem("projective_plane_like.gem"))
    assert rec.exit_code == EXIT_INTERNAL and dgm is None
    assert rec.error.startswith(error)
    assert rec.diagram_ref is None
    assert rec.ledger is not None and rec.certificate is not None
    assert bool(rec.violations) == ledger
    assert rec.report["simply_connected"] is True


def _without_timings(rec):
    d = rec.as_dict()
    del d["timings"]
    return (json.dumps(d, sort_keys=True, separators=(",", ":"))
            + "\n").encode("ascii")


def _route_corpus():
    """Seeded gems of every family the pi1 route meets."""
    import random

    from conftest import fixture_graph, pipeline_corpus, weld

    gems = list(pipeline_corpus())
    rng = random.Random(2311)
    pp = fixture_graph("projective_plane_like.gem")
    nf = fixture_graph("nonzero_forest.gem")
    for _ in range(16):
        g = rng.choice((pp, nf))
        for _ in range(rng.randrange(1, 4)):
            g = weld(g, rng.choice((pp, nf)), rng)
        gems.append(g)
    gems += _workloads().sphere_blobs([16, 32, 64, 128], rng)
    gems.append(fixture_graph("pp_sum3.gem"))
    return gems


def _workloads():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pi1_route_matches_the_built_group(monkeypatch):
    import gemtrisect.homology as homology
    from gemtrisect.graphs import build_graph

    prove = cli.prove_pi1_trivial
    fired = []
    monkeypatch.setattr(cli, "prove_pi1_trivial",
                        lambda d: prove(d) and not fired.append(d))
    gems = _route_corpus()
    routed = []
    for g in gems:
        fired.clear()
        rec, dgm = run_pipeline(GemFile(4, None, {}, g))
        routed.append((rec, dgm, bool(fired)))
        if fired:
            # the theorem's trivial group is what Tietze moves reach
            fresh = build_graph(g.n, g.edges)
            assert homology._build_pi1(fresh).num_generators == 0
    assert sum(f for _, _, f in routed) == len(gems)

    # a fresh copy, as g keeps the pi1 the route stored in its memo
    monkeypatch.setattr(cli, "prove_pi1_trivial", lambda d: False)
    for g, (rec, dgm, _) in zip(gems, routed):
        off, off_dgm = run_pipeline(
            GemFile(4, None, {}, build_graph(g.n, g.edges)))
        assert _without_timings(off) == _without_timings(rec)
        assert off_dgm == dgm


@pytest.mark.parametrize("workload", ["pp_ladder", "blob_ladder"])
def test_ladder_rungs_build_no_pi1(monkeypatch, workload):
    workloads = _workloads()
    built = _count_pi1_builds(monkeypatch)
    for rung in workloads.MAKE_INPUTS[workload](7, True, None):
        for item in rung.items:
            rec, _ = workloads.op_pipeline(item, None)
            assert rec.exit_code == EXIT_OK
            assert rec.report["simply_connected"] is True
            assert rec.ledger["rk_upper"] == 0
    # boundary spheres are proven, so no residue's pi1 is built either
    assert built == []


@pytest.mark.parametrize("name", [
    "projective_plane_like",    # closed: the diagram proves pi1 = 1
    "bounded_s1s2",             # bounded: pi1 is built
    "two_singular_colors",      # exit 2: pi1 still fills simply_connected
    "s1s3",                     # closed, pi1 = Z: the ledger builds pi1
])
def test_golden_record_bytes(datadir_gem, name):
    # whole records without timings, pinned from the version that built
    # pi1 during certification
    rec, _ = run_pipeline(datadir_gem(name + ".gem"))
    assert _without_timings(rec) == (
        DATA / (name + ".record.json")).read_bytes()


def test_pipeline_builds_square_complex_once_per_graph(datadir_gem,
                                                      monkeypatch):
    import gemtrisect.trisection as trisection
    from gemtrisect.diagrams import assemble_diagram
    from gemtrisect.embedding import CyclicPermutation

    walked = []
    walk = trisection.bicolored_cycles
    monkeypatch.setattr(trisection, "bicolored_cycles",
                        lambda g, c, d: walked.append((c, d)) or walk(g, c, d))
    gf = datadir_gem("projective_plane_like.gem")
    rec, dgm = run_pipeline(gf)
    assert rec.exit_code == EXIT_OK and dgm is not None
    # the 12 orders of the sweep and the diagram share one square
    # complex, so each {i,4}-cycle list is walked once
    assert walked == [(i, 4) for i in range(4)]

    # build_Q, then the diagram for the same order: still one walk each
    g = datadir_gem("nonzero_forest.gem").graph
    eps = CyclicPermutation((0, 1, 2, 3, 4))
    walked.clear()
    Q = trisection.build_Q(g, eps)
    cert = trisection.certificate(g, eps, trisection.collapse_schedule(
        Q, trisection.stabilization_set(g, eps)))
    assert assemble_diagram(g, eps, cert).record.ok
    assert walked == [(i, 4) for i in range(4)]


def test_graph_memo_holds_no_reference_to_its_graph(datadir_gem):
    # a memo entry that reaches its graph makes a reference cycle, which
    # keeps every graph of a batch alive until the cyclic collector runs
    import gc
    import types

    gf = datadir_gem("projective_plane_like.gem")
    rec, _ = run_pipeline(gf)
    assert rec.exit_code == EXIT_OK
    g = gf.graph
    # one square complex for all 12 orders, not one per order
    assert "Q" in g._memo
    assert not any(k[0] == "Q" for k in g._memo if isinstance(k, tuple))
    seen = set()
    stack = list(g._memo.values())
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, (type, types.ModuleType)):
            continue
        seen.add(id(x))
        assert x is not g
        stack.extend(gc.get_referents(x))


def test_failing_diagram_check_evidence_in_record(datadir_gem, monkeypatch):
    from fractions import Fraction

    assemble = cli.assemble_diagram
    failed = {}

    def failing(*args):
        d = assemble(*args)
        check = d.record.checks["pairing_ab"]
        check.update({"pass": False, "witness": (Fraction(1, 2), 3)})
        failed.update(check)
        d.record.ok = False
        return d

    monkeypatch.setattr(cli, "assemble_diagram", failing)
    rec, dgm = run_pipeline(datadir_gem("projective_plane_like.gem"))
    assert rec.exit_code == EXIT_INTERNAL and dgm is None
    prefix = "diagram verification failed: "
    assert rec.error.startswith(prefix)
    # the failing check's own fields, made JSON-safe, and no passing check
    evidence = json.loads(rec.error[len(prefix):])
    assert evidence == {"pairing_ab": dict(failed, witness=["1/2", 3])}
    assert set(failed) >= {"rank", "expected_rank", "torsion"}


def test_golden_diagram_bytes(datadir_gem):
    gf = datadir_gem("projective_plane_like.gem")
    _, dgm = run_pipeline(gf)
    assert dgm == (DATA / "projective_plane_like.diagram.json").read_bytes()


def test_golden_diagram_bytes_pp_sum3(datadir_gem):
    # the #3 chain sum: its gamma rewrites 9 collapsed squares, 3 of
    # them in both directions
    _, dgm = run_pipeline(datadir_gem("pp_sum3.gem"))
    assert dgm == (DATA / "pp_sum3.diagram.json").read_bytes()


def test_golden_diagram_bytes_s1s3(datadir_gem):
    # the sweep stabilizes one square, so alpha and beta are the handle's
    # meridian and gamma runs through the handle once
    _, dgm = run_pipeline(datadir_gem("s1s3.gem"))
    assert dgm == (DATA / "s1s3.diagram.json").read_bytes()


def test_s1s3_fixture_is_s1_cross_s3(datadir_gem):
    # the one closed fixture with pi1 != 1 and k > 0: S1 x S3 has
    # trisection genus 1 and rank-1 pi1, and its homology is Z, Z, 0, Z, Z
    from gemtrisect.homology import HomologyGroup, homology

    gf = datadir_gem("s1s3.gem")
    assert gf.graph.nv == 10
    rec, dgm = run_pipeline(gf)
    assert rec.exit_code == EXIT_OK and dgm is not None
    assert (rec.certificate["genus"], rec.certificate["k"]) == (1, 1)
    assert (rec.ledger["rk_lower"], rec.ledger["rk_upper"]) == (1, 1)
    assert rec.report["simply_connected"] is False
    z, zero = HomologyGroup(1), HomologyGroup(0)
    assert homology(datadir_gem("s1s3.gem").graph) == [z, z, zero, z, z]


def test_s1s3_welds_with_projective_plane(datadir_gem):
    # S1 x S3 # (the fixture's 4-manifold): genus adds, one handle
    # stays, pi1 stays Z
    from conftest import fixture_graph, shuffled, weld

    rng = random.Random(1982)
    s13 = fixture_graph("s1s3.gem")
    pp = fixture_graph("projective_plane_like.gem")
    for _ in range(8):
        g = shuffled(weld(pp, s13, rng), rng)
        rec, dgm = run_pipeline(GemFile(4, None, {}, g))
        assert rec.exit_code == EXIT_OK and dgm is not None
        assert rec.diagram_ref["verified"] is True
        assert (rec.certificate["genus"], rec.certificate["k"]) == (2, 1)
        assert (rec.ledger["rk_lower"], rec.ledger["rk_upper"]) == (1, 1)
        assert rec.report["simply_connected"] is False


def test_diagram_format_options(datadir_gem):
    gf = datadir_gem("projective_plane_like.gem")
    rec, dot = run_pipeline(gf, {"format": "dot"})
    assert rec.as_dict()["diagram_ref"]["format"] == "dot"
    assert dot.startswith(b"graph diagram {")
    rec2, svg = run_pipeline(gf, {"format": "svg"})
    assert svg.startswith(b"<?xml")
    with pytest.raises(GemError):
        run_pipeline(gf, {"format": "png"})


def test_relabel_apex_swaps_colors_and_attestations(s4_gem):
    gf = GemFile(4, "x", {"sphere": "0:1,4:0,0,2", "boundary": "#1(S1xS2)"},
                 s4_gem)
    out = relabel_apex(gf, 0)
    # a bare item c means c:0; its color is swapped and its form kept
    assert out.attestations["sphere"] == "4:1,0:0,4,2"
    assert (parse_attestations(out.attestations)["sphere"]
            == {(4, 1), (0, 0), (4, 0), (2, 0)})
    assert out.attestations["boundary"] == "#1(S1xS2)"
    assert sorted(c for _, _, c in out.graph.edges) == [0, 1, 2, 3, 4]
    assert relabel_apex(gf, 4) is gf
    with pytest.raises(GemError):
        relabel_apex(gf, 7)


def test_alternate_apex_color_runs(datadir_gem):
    gf = datadir_gem("projective_plane_like.gem")
    swapped = relabel_apex(gf, 2)   # involution: swapping twice is identity
    rec, _ = run_pipeline(swapped, {"apex_color": 2})
    base, _ = run_pipeline(gf)
    assert rec.exit_code == EXIT_OK
    assert (rec.as_dict()["certificate"]["genus"]
            == base.as_dict()["certificate"]["genus"])


def test_cache_hits_are_byte_identical(tmp_path, datadir_gem):
    gf = datadir_gem("projective_plane_like.gem")
    cache = str(tmp_path / "cache")
    blob1, dgm1, code1, hit1 = run_cached(gf, None, cache)
    blob2, dgm2, code2, hit2 = run_cached(gf, None, cache)
    assert (hit1, hit2) == (False, True)
    assert blob1 == blob2
    assert dgm1 == dgm2
    assert code1 == code2 == EXIT_OK

    # the text and json spellings share one cache entry
    other = parse_gem(gem_json_bytes(gf))
    blob3, _, _, hit3 = run_cached(other, None, cache)
    assert hit3 is True
    assert blob3 == blob1


def test_cold_miss_computes_its_key_once(tmp_path, datadir_gem,
                                         monkeypatch):
    # run_cached needs the key before it runs the pipeline, and hands
    # it on instead of letting the pipeline hash the gem again
    gf = datadir_gem("projective_plane_like.gem")
    want, _ = run_pipeline(gf)
    keys = []
    monkeypatch.setattr(cli, "run_key",
                        lambda *args: keys.append(args) or run_key(*args))
    cache = str(tmp_path / "cache")
    blob, dgm, code, hit = run_cached(gf, None, cache)
    assert (code, hit, len(keys)) == (EXIT_OK, False, 1)
    assert _untimed(blob) == _untimed(want.to_bytes())
    keys.clear()
    assert run_cached(gf, None, cache)[1:] == (dgm, code, True)
    assert len(keys) == 1
    keys.clear()
    assert _untimed(run_pipeline(gf)[0].to_bytes()) == _untimed(blob)
    assert len(keys) == 1


def test_cache_hit_without_a_diagram(tmp_path, datadir_gem):
    # an exit-2 record names no diagram, so its hit returns None for it
    gf = datadir_gem("two_singular_colors.gem")
    cache = str(tmp_path / "cache")
    first = run_cached(gf, None, cache)
    again = run_cached(gf, None, cache)
    assert first[1:] == (None, EXIT_NOT_MEMBER, False)
    assert again == (first[0], None, EXIT_NOT_MEMBER, True)


# an order-10 gem of the class that is not bipartite: a grown 4-sphere
# gem with two vertices of one bipartition class welded together
NON_ORIENTABLE_EDGES = """0 9 0
1 3 0
2 4 0
5 6 0
7 8 0
0 7 1
1 2 1
3 4 1
5 6 1
8 9 1
0 2 2
1 6 2
3 4 2
5 9 2
7 8 2
0 9 3
1 2 3
3 7 3
4 8 3
5 6 3
0 9 4
1 2 4
3 4 4
5 6 4
7 8 4
"""


def test_non_orientable_member_skips_the_diagram(monkeypatch):
    built = _count_pi1_builds(monkeypatch)
    gf = parse_gem("gem n=4\n" + NON_ORIENTABLE_EDGES)
    rec, dgm = run_pipeline(gf)
    # no diagram proves pi1 trivial, so the gem's pi1 is built
    assert [g.n for g in built if g.n == 4] == [4]
    d = rec.as_dict()
    assert rec.exit_code == EXIT_OK and dgm is None
    assert d["report"]["orientable"] is False
    assert d["diagram_ref"] == {
        "skipped": "diagram machinery needs an orientable (bipartite) gem"}
    assert d["certificate"] is not None and d["ledger"] is not None


def test_cache_key_tracks_options(tmp_path, datadir_gem):
    gf = datadir_gem("projective_plane_like.gem")
    cache = str(tmp_path / "cache")
    _, _, _, hit1 = run_cached(gf, {"format": "dot"}, cache)
    _, _, _, hit2 = run_cached(gf, {"format": "svg"}, cache)
    assert hit1 is hit2 is False


def _write(tmp_path, name, content):
    p = tmp_path / name
    p.write_bytes(content if isinstance(content, bytes)
                  else content.encode())
    return str(p)


def test_batch_keeps_order_and_survives_bad_rows(tmp_path):
    good1 = _write(tmp_path, "a.gem", SPHERE_TEXT)
    bad = _write(tmp_path, "b.gem", "gem n=4\n0 1 9\n")
    good2 = _write(tmp_path, "c.gem",
                   (DATA / "projective_plane_like.gem").read_bytes())
    rows = batch([good1, bad, good2])
    assert [r.path for r in rows] == [good1, bad, good2]
    assert [r.exit_code for r in rows] == [EXIT_OK, EXIT_INVALID, EXIT_OK]
    assert rows[1].record_bytes is None
    assert rows[1].error


def test_batch_rerun_all_cached(tmp_path):
    cache = str(tmp_path / "cache")
    paths = [_write(tmp_path, "a.gem", SPHERE_TEXT),
             _write(tmp_path, "c.gem",
                    (DATA / "projective_plane_like.gem").read_bytes())]
    first = batch(paths, cache_dir=cache)
    second = batch(paths, cache_dir=cache)
    assert all(not r.cached for r in first)
    assert all(r.cached for r in second)
    assert [r.record_bytes for r in first] == [
        r.record_bytes for r in second]


def test_main_exit_codes_and_summary(tmp_path, capsys):
    ok = _write(tmp_path, "ok.gem", SPHERE_TEXT)
    assert main([ok]) == EXIT_OK
    out = capsys.readouterr().out
    assert "exit=0" in out and "genus=0 k=0" in out

    bad = _write(tmp_path, "bad.gem", "gem n=4\n0 1\n")
    assert main([bad]) == EXIT_INVALID

    nonmember = _write(tmp_path, "p.gem",
                       (DATA / "two_singular_colors.gem").read_bytes())
    assert main([nonmember]) == EXIT_NOT_MEMBER

    assert main([str(tmp_path / "missing.gem")]) == EXIT_IO

    # worst exit wins across a batch
    assert main([ok, nonmember]) == EXIT_NOT_MEMBER


@pytest.mark.parametrize("n", [2000, 10 ** 20, int("7" * 4000),
                               10 ** 4300 - 1],
                         ids=["n=2000", "n=1e20", "n=4000-digits",
                              "n=4300-nines"])
def test_large_dimension_header_exits_invalid_briefly(tmp_path, capsys, n):
    # one edge can never make a vertex of 2001 (or 10^20 + 1) colors;
    # the refusal comes before any per-vertex color table exists, and
    # names an n + 1 of thousands of digits by its size (10^4300 is
    # past the digits Python prints)
    bad = _write(tmp_path, "big.gem", "gem n=%d\n0 1 0\n" % n)
    assert main([bad]) == EXIT_INVALID
    line, = capsys.readouterr().out.splitlines()
    assert "error exit=1" in line and len(line.encode()) < 200


@pytest.mark.parametrize("attest, code", [
    ("boundary=#%s(S1xS2)" % ("7" * 5000), EXIT_INVALID),
    ("sphere=1:%s" % ("7" * 5000), EXIT_INVALID),
    ("boundary=#%s(S1xS2)" % ("7" * 3000), EXIT_OK),
    ("sphere=1:%s" % ("7" * 3000), EXIT_OK),
], ids=["boundary-5000-digits", "sphere-5000-digits", "boundary-3000-digits",
        "sphere-3000-digits"])
def test_long_attestation_integers_stay_brief(tmp_path, capsys, attest,
                                              code):
    # 5000 digits are past Python's limit on int digits: a refusal, not
    # a traceback; 3000 digits parse, and the conflict names the count
    # by its size
    path = _write(tmp_path, "a.gem", "gem n=4\nattest %s\n%s" % (
        attest, "".join("0 1 %d\n" % c for c in range(5))))
    assert main([path]) == code
    line, = capsys.readouterr().out.splitlines()
    assert len(line.encode()) < 200
    row, = batch([path])
    rec = json.loads(row.record_bytes)
    messages = [rec["error"] or ""]
    if rec["report"]:
        messages += rec["report"]["conflicts"]
    assert (code == EXIT_OK) == (len(messages) == 2)
    assert all(len(m) < 120 for m in messages), messages


# a path of 2000 edges colored 0/1 on 2001 vertices under n = 1999 has
# too few edge ends; it is refused before any per-vertex color table
PATH_UNDER_N_1999 = "gem n=1999\n" + "".join(
    "%d %d %d\n" % (i, i + 1, i % 2) for i in range(2000))


@pytest.mark.parametrize("data", [
    b"gem n=" + b"7" * 5000 + b"\n0 1 0\n",
    b'{"n": 4, "edges": ' + b"[" * 200000,
    PATH_UNDER_N_1999.encode(),
], ids=["5000-digit-n", "deeply-nested-json", "path-under-n=1999"])
def test_malformed_inputs_exit_invalid_briefly_in_small_memory(
        tmp_path, capsys, data):
    bad = _write(tmp_path, "bad.gem", data)
    tracemalloc.start()
    try:
        code = main([bad])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_INVALID
    line, = capsys.readouterr().out.splitlines()
    assert "error exit=1" in line and len(line.encode()) < 200
    assert peak < 5 * 2 ** 20


@pytest.mark.parametrize("flags", [
    ["--mode", "foo"], ["--minimize-k", "abc"], ["--format", "png"],
    ["--apex-color", "x"], ["--sweep"], ["--no-such-flag"], ["--eps"],
], ids=lambda flags: " ".join(flags))
def test_main_usage_errors_exit_invalid(tmp_path, capsys, flags):
    ok = _write(tmp_path, "ok.gem", SPHERE_TEXT)
    assert main([ok] + flags) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: gemtrisect" in captured.err and "error:" in captured.err


def test_main_without_paths_or_with_help(capsys):
    assert main([]) == EXIT_INVALID
    assert "usage: gemtrisect" in capsys.readouterr().err
    assert main(["--help"]) == EXIT_OK
    assert "--minimize-k" in capsys.readouterr().out


def test_main_cache_flag(tmp_path, capsys):
    ok = _write(tmp_path, "ok.gem", SPHERE_TEXT)
    cache = str(tmp_path / "cache")
    assert main([ok, "--cache", cache]) == EXIT_OK
    capsys.readouterr()
    assert main([ok, "--cache", cache]) == EXIT_OK
    assert "(cached)" in capsys.readouterr().out


def test_main_out_dir(tmp_path):
    ok = _write(tmp_path, "ok.gem", SPHERE_TEXT)
    out = tmp_path / "results"
    assert main([ok, "--out", str(out)]) == EXIT_OK
    runs = list(out.glob("ok.*.run.json"))
    diagrams = list(out.glob("ok.*.diagram.json"))
    assert len(runs) == 1 and len(diagrams) == 1
    rec = json.loads(runs[0].read_bytes())
    assert rec["exit_code"] == 0
    assert diagrams[0].read_bytes() == EMPTY_DIAGRAM
    import hashlib
    assert (hashlib.sha256(diagrams[0].read_bytes()).hexdigest()
            == rec["diagram_ref"]["sha256"])


def test_main_eps_flag(tmp_path, capsys):
    p = _write(tmp_path, "p.gem",
               (DATA / "projective_plane_like.gem").read_bytes())
    assert main([p, "--eps", "0,1,3,2,4"]) == EXIT_OK
    assert "eps=0,1,3,2,4" in capsys.readouterr().out
    assert main([p, "--eps", "zero,1"]) == EXIT_INVALID
    out = tmp_path / "short"
    assert main([p, "--eps", "0,1,2,3", "--out", str(out)]) == EXIT_INVALID
    runs = list(out.glob("p.*.run.json"))
    assert len(runs) == 1
    assert json.loads(runs[0].read_bytes())["exit_code"] == EXIT_INVALID


def test_main_format_flag(tmp_path):
    p = _write(tmp_path, "p.gem",
               (DATA / "projective_plane_like.gem").read_bytes())
    out = tmp_path / "r"
    assert main([p, "--format", "dot", "--out", str(out)]) == EXIT_OK
    dots = list(out.glob("p.*.diagram.dot"))
    assert len(dots) == 1
    assert dots[0].read_bytes().startswith(b"graph diagram {")


def test_batch_survives_malformed_attestation(tmp_path):
    good = _write(tmp_path, "a.gem", SPHERE_TEXT)
    bad = _write(tmp_path, "b.gem",
                 SPHERE_TEXT.replace("attest simply-connected=yes",
                                     "attest sphere=x:y"))
    rows = batch([good, bad])
    assert [r.path for r in rows] == [good, bad]
    assert [r.exit_code for r in rows] == [EXIT_OK, EXIT_INVALID]
    rec = json.loads(rows[1].record_bytes)
    assert "x:y" in rec["error"]


def test_batch_maps_unexpected_exceptions_to_exit_3(tmp_path, monkeypatch):
    def boom(*a, **kw):
        raise KeyError("synthetic")
    # a stage inside the pipeline, whichever entry point batch takes
    monkeypatch.setattr(cli, "certify_Gs4", boom)
    rows = batch([_write(tmp_path, "a.gem", SPHERE_TEXT),
                  _write(tmp_path, "b.gem", "gem n=4\n0 1 9\n")])
    assert [r.exit_code for r in rows] == [EXIT_INTERNAL, EXIT_INVALID]
    assert "KeyError" in rows[0].error


def _untimed(record_bytes):
    rec = json.loads(record_bytes)
    del rec["timings"]
    return rec


@pytest.mark.parametrize("damage", [
    lambda blob: blob[:len(blob) // 2],                     # truncated
    lambda blob: b"",                                       # empty
    lambda blob: b"[1, 2]\n",                               # not an object
    lambda blob: blob.replace(b'"exit_code":0', b'"exit_code":"0"'),
])
def test_corrupt_cache_entry_is_a_rewritten_miss(tmp_path, datadir_gem,
                                                 damage):
    gf = datadir_gem("projective_plane_like.gem")
    cache = tmp_path / "cache"
    blob, dgm, _, _ = run_cached(gf, None, str(cache))
    entry = cache / (run_key(gf, normalize_options({})) + ".json")
    entry.write_bytes(damage(blob))
    again, dgm2, code, hit = run_cached(gf, None, str(cache))
    assert (hit, code) == (False, EXIT_OK)
    assert dgm2 == dgm
    assert _untimed(again) == _untimed(blob)
    assert entry.read_bytes() == again
    assert run_cached(gf, None, str(cache))[3] is True


@pytest.mark.parametrize("damage", [
    lambda path: path.unlink(),
    lambda path: path.write_bytes(path.read_bytes() + b" "),
], ids=["missing", "altered"])
def test_cache_entry_without_its_diagram_is_a_rewritten_miss(
        tmp_path, datadir_gem, damage):
    gf = datadir_gem("projective_plane_like.gem")
    cache = tmp_path / "cache"
    blob, dgm, _, _ = run_cached(gf, None, str(cache))
    assert dgm is not None
    dgm_file = cache / (run_key(gf, normalize_options({})) + ".diagram")
    damage(dgm_file)
    again, dgm2, code, hit = run_cached(gf, None, str(cache))
    assert (hit, code) == (False, EXIT_OK)
    assert dgm2 == dgm == dgm_file.read_bytes()
    assert _untimed(again) == _untimed(blob)
    assert run_cached(gf, None, str(cache))[1:] == (dgm, EXIT_OK, True)


@pytest.mark.parametrize("data", [
    # a huge vertex id must be refused before any table of that size exists
    b"gem n=4\n0 1 0\n0 1 1\n0 1 2\n0 1 3\n0 99999999 4\n",
    b'{"n": true, "edges": [[0, 1, 0], [0, 1, 1]]}',
    b'{"n": 1, "edges": [[0, true, 0], [0, 1, 1]]}',
    b'{"n": 1, "edges": [[0, 1, false], [0, 1, 1]]}',
], ids=["huge-vertex-id", "bool-n", "bool-vertex", "bool-color"])
def test_bad_ids_rejected(data):
    with pytest.raises(GemError):
        parse_gem(data)


# -- generated inputs ----------------------------------------------------

_SMALL_INT = st.integers(-2, 7)
_JSON = st.recursive(
    st.none() | st.booleans() | _SMALL_INT | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=6)
_EDGE = st.tuples(_SMALL_INT, _SMALL_INT, _SMALL_INT)


def _text_gem(n, edges, extra):
    lines = ["gem n=%d" % n] + ["%d %d %d" % e for e in edges] + extra
    return "\n".join(lines).encode()


_TEXT_GEM = st.builds(
    _text_gem, _SMALL_INT, st.lists(_EDGE, max_size=12),
    st.lists(st.text(max_size=8), max_size=2))
_JSON_GEM = st.builds(
    lambda obj: json.dumps(obj).encode(),
    st.fixed_dictionaries(
        {"n": _SMALL_INT | _JSON,
         "edges": st.lists(_EDGE | _JSON, max_size=12) | _JSON},
        optional={"name": _JSON, "attest": _JSON}))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_TEXT_GEM | _JSON_GEM)
def test_parse_gem_raises_only_gem_errors(data):
    try:
        gf = parse_gem(data)
    except GemError:
        return
    g = gf.graph
    # accepted: every vertex carries every color once, on an even order
    assert 2 * len(g.edges) == (g.n + 1) * g.nv and g.nv % 2 == 0
    assert all(e is not None for row in g._inc for e in row)


# -- mutated inputs ------------------------------------------------------

def _fixture_blobs():
    out = [SPHERE_TEXT.encode()]
    for name in ("projective_plane_like.gem", "bounded_s1s2.gem",
                 "nonzero_forest.gem", "two_singular_colors.gem"):
        data = (DATA / name).read_bytes()
        out += [data, gem_json_bytes(parse_gem(data))]
    return out


FIXTURE_BLOBS = _fixture_blobs()

# digits and grammar bytes keep a mutant close to the format, so some
# still parse and reach the pipeline; arbitrary bytes test the refusals
_BYTE = st.one_of(st.sampled_from(b"0123456789"),
                  st.sampled_from(b' \n-=#:,[]{}"'), st.integers(0, 255))
_EDIT = st.tuples(st.sampled_from("rrid"), st.integers(0, 1 << 16), _BYTE)


def _mutate(data, edits):
    """Apply up to four replace/insert/delete byte edits."""
    buf = bytearray(data)
    for kind, at, byte in edits:
        at %= len(buf) + 1
        if kind == "i":
            buf.insert(at, byte)
        elif at < len(buf):
            if kind == "r":
                buf[at] = byte
            else:
                del buf[at]
    return bytes(buf)


_MUTANT = st.builds(_mutate, st.sampled_from(FIXTURE_BLOBS),
                    st.lists(_EDIT, min_size=1, max_size=4))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_MUTANT)
def test_mutated_inputs_map_to_exit_codes(data):
    try:
        gf = parse_gem(data)
    except GemError:
        return
    rec, _ = run_pipeline(gf)
    assert rec.exit_code in range(5)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.lists(_MUTANT, min_size=1, max_size=4))
def test_batch_of_mutants_keeps_one_row_per_file(blobs):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(pathlib.Path(tmp) / ("m%d.gem" % i))
                 for i in range(len(blobs))]
        for path, data in zip(paths, blobs):
            pathlib.Path(path).write_bytes(data)
        rows = batch(paths)
    assert [r.path for r in rows] == paths
    assert all(r.exit_code in range(5) for r in rows)
