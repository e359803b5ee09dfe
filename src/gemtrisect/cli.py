"""Gem file formats, the pipeline driver, batch runs, and result caching.

Text format: line 1 is "gem n=<n>", then optional "name <label>" and
"attest <key>=<value>" lines, then one "u v c" line per edge.  Blank
lines and "#" comments are ignored.  The JSON equivalent is an object
{"n":..., "name":..., "attest":{...}, "edges":[[u,v,c],...]}.

Runs are cached in a plain directory keyed by the canonical gem
serialization, the result-affecting options, and the tool version;
cache writes are atomic and a hit is returned byte-for-byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
import time
from fractions import Fraction

from . import __version__
from .diagrams import assemble_diagram, export_diagram, prove_pi1_trivial
from .embedding import _permutation, cyclic_permutations
from .graphs import GemError, build_graph
from .homology import bound_ledger
from .trisection import Incomplete, sweep
from .validation import (MultipleApexResidues, NotAGem, certify_Gs4,
                         settle_simply_connected)

EXIT_OK = 0
EXIT_INVALID = 1        # parse or validation failure
EXIT_NOT_MEMBER = 2     # valid gem outside the singular-apex class
EXIT_INTERNAL = 3       # scheduler or verifier failure past certification
EXIT_IO = 4

_DEFAULT_OPTIONS = {
    "eps": None,        # fixed permutation, or None to sweep
    "apex_color": 4,
    "budget": 0,        # minimize_k search budget
    "mode": "auto",     # auto | closed | gts
    "format": "json",   # diagram export format
}


class ParseError(GemError):
    """Malformed gem file; carries the offending 1-based line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class GemFile:
    """Parsed gem input: validated graph plus header metadata."""

    __slots__ = ("n", "name", "attestations", "graph")

    def __init__(self, n, name, attestations, graph):
        self.n = n
        self.name = name
        self.attestations = dict(attestations)
        self.graph = graph

    def __repr__(self):
        return "GemFile(n=%d, name=%r, order=%d)" % (
            self.n, self.name, self.graph.nv)


_HEADER_RE = re.compile(r"^gem\s+n\s*=\s*(\d+)$")


def parse_gem(data):
    """Parse text or JSON bytes into a GemFile.

    Structural problems raise ParseError with a line number; graph
    validation failures propagate from build_graph.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("not utf-8: %s" % exc) from None
    stripped = data.lstrip()
    if stripped.startswith("{"):
        return _parse_json(stripped)
    return _parse_text(data)


def _is_int(x):
    # JSON true/false load as bool, which is an int subclass
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_json(text):
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise ParseError("invalid json: %s" % exc) from None
    except RecursionError:
        raise ParseError("invalid json: nested too deeply") from None
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ParseError('json gem needs "n" and "edges"')
    n = obj["n"]
    if not _is_int(n):
        raise ParseError('"n" must be an integer')
    if not isinstance(obj["edges"], list):
        raise ParseError('"edges" must be a list')
    edges = []
    for i, rec in enumerate(obj["edges"]):
        if (not isinstance(rec, (list, tuple)) or len(rec) != 3
                or not all(_is_int(x) for x in rec)):
            raise ParseError("edge %d is not three integers" % i)
        edges.append(tuple(rec))
    attest = obj.get("attest", {})
    if not isinstance(attest, dict):
        raise ParseError('"attest" must be an object')
    # gem_text, and with it run_key, writes the name and each attestation
    # as one line; a line break, or a "=" in a key, would let two
    # different gems write the same lines
    name = obj.get("name")
    if name is not None and not (name and _one_line(name)):
        raise ParseError('"name" must be a non-empty string on one line')
    for key, value in attest.items():
        if not (_one_line(key) and _one_line(value)) or "=" in key:
            raise ParseError('"attest" keys and values must be strings on '
                             'one line, and keys must not contain "="')
    g = build_graph(n, edges)
    return GemFile(n, name, attest, g)


def _one_line(x):
    return isinstance(x, str) and "".join(x.splitlines()) == x


# a body of plain edge lines: ASCII digits, single spaces, "\n" endings
_EDGE_LINES_RE = re.compile(
    r"(?:[0-9]+ [0-9]+ [0-9]+\n)*(?:[0-9]+ [0-9]+ [0-9]+)?")
_DIGIT_LINE_RE = re.compile(r"^[0-9]", re.MULTILINE)


def _parse_text(text):
    """Parse the text format: the line scan, or one pass over the body.

    The body starts at the first line that starts with a digit.  When
    it holds plain "u v c" lines only, the lines before it are scanned
    and the body's fields are split and converted at once; whenever it
    holds anything else, or a field past Python's limit on int digits,
    the line scan reads the whole text, so every message and line
    number is the scan's.  A plain body raises no error of its own, and
    an error before it is the first the scan would meet.
    """
    fields = None
    found = _DIGIT_LINE_RE.search(text)
    if found is not None and _EDGE_LINES_RE.fullmatch(text, found.start()):
        fields = _scan_lines(text[:found.start()])
        try:
            values = list(map(int, text[found.start():].split()))
        except ValueError:      # past Python's limit on int digits
            fields = None
        else:
            triples = iter(values)
            fields[3].extend(zip(triples, triples, triples))
    if fields is None or fields[0] is None:
        fields = _scan_lines(text)
    n, name, attest, edges = fields
    if n is None:
        raise ParseError("empty input: no gem header")
    g = build_graph(n, edges)
    return GemFile(n, name, attest, g)


def _scan_lines(text):
    """[n, name, attestations, edges] of text, read line by line.

    n stays None when no header is found; any other malformed line
    raises ParseError with its 1-based number.
    """
    n = None
    name = None
    attest = {}
    edges = []
    for lno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        # whole-line comments only: attestation values may contain "#"
        if not line or line.startswith("#"):
            continue
        if n is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise ParseError('expected "gem n=<n>" header', lno)
            try:
                n = int(m.group(1))
            except ValueError:      # past Python's limit on int digits
                raise ParseError("n has too many digits", lno) from None
            continue
        if line.startswith("name "):
            name = line[5:].strip()
            continue
        if line.startswith("attest "):
            body = line[7:].strip()
            if "=" not in body:
                raise ParseError("attest needs key=value", lno)
            key, _, value = body.partition("=")
            attest[key.strip()] = value.strip()
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError('expected "u v c"', lno)
        try:
            u, v, c = (int(p) for p in parts)
        except ValueError:
            raise ParseError("edge fields must be integers", lno) from None
        edges.append((u, v, c))
    return [n, name, attest, edges]


def gem_text(gf):
    """Canonical text serialization; parse_gem round-trips it."""
    lines = ["gem n=%d" % gf.n]
    if gf.name:
        lines.append("name %s" % gf.name)
    for key in sorted(gf.attestations):
        lines.append("attest %s=%s" % (key, gf.attestations[key]))
    for u, v, c in gf.graph.edges:
        lines.append("%d %d %d" % (u, v, c))
    return "\n".join(lines) + "\n"


def gem_json_bytes(gf):
    obj = {"n": gf.n, "edges": [list(e) for e in gf.graph.edges]}
    if gf.name:
        obj["name"] = gf.name
    if gf.attestations:
        obj["attest"] = dict(sorted(gf.attestations.items()))
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"))
            + "\n").encode("ascii")


def _swap_color(c, apex):
    if c == apex:
        return 4
    if c == 4:
        return apex
    return c


def relabel_apex(gf, apex):
    """Swap colors apex and 4 so downstream code sees apex = 4.

    Sphere attestation items (c:idx, or a bare c meaning c:0) name
    colors, so their colors are swapped too, each item keeping its
    form; other attestation values are color-free.
    """
    if apex == 4:
        return gf
    if apex not in gf.graph.colors:
        raise GemError("apex color %r out of range" % (apex,))
    edges = [(u, v, _swap_color(c, apex)) for u, v, c in gf.graph.edges]
    attest = dict(gf.attestations)
    if "sphere" in attest:
        items = []
        for item in attest["sphere"].split(","):
            c, colon, idx = item.strip().partition(":")
            try:
                int(idx or "0")
                c = str(_swap_color(int(c), apex))
            except ValueError:
                pass        # left as written, for the parser to reject
            items.append(c + colon + idx)
        attest["sphere"] = ",".join(items)
    return GemFile(gf.n, gf.name, attest, build_graph(gf.n, edges))


# -- run records and caching ------------------------------------------------

def _jsonable(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else "%d/%d" % (
            x.numerator, x.denominator)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return repr(x)


class RunRecord:
    """One pipeline outcome, serialized deterministically.

    The content address covers the canonical gem, the result-affecting
    options and the tool version; timings ride along in the record but
    never enter the hash.
    """

    __slots__ = ("input_hash", "name", "options", "report", "certificate",
                 "ledger", "violations", "diagram_ref", "version",
                 "timings", "exit_code", "error")

    def __init__(self, **kw):
        for f in self.__slots__:
            setattr(self, f, kw.get(f))
        self.timings = kw.get("timings") or {}

    def as_dict(self):
        return _jsonable({
            "input_hash": self.input_hash,
            "name": self.name,
            "options": self.options,
            "report": self.report,
            "certificate": self.certificate,
            "ledger": self.ledger,
            "violations": self.violations,
            "diagram_ref": self.diagram_ref,
            "version": self.version,
            "exit_code": self.exit_code,
            "error": self.error,
            "timings": self.timings,
        })

    def to_bytes(self):
        return (json.dumps(self.as_dict(), sort_keys=True,
                           separators=(",", ":")) + "\n").encode("ascii")


def normalize_options(options=None):
    opts = dict(_DEFAULT_OPTIONS)
    for k, v in (options or {}).items():
        if k not in opts:
            raise GemError("unknown option %r" % (k,))
        opts[k] = v
    if not _is_int(opts["budget"]) or opts["budget"] < 0:
        raise GemError("budget must be a non-negative integer")
    if not _is_int(opts["apex_color"]):
        raise GemError("apex_color must be an integer")
    if opts["eps"] is not None:
        try:
            opts["eps"] = tuple(opts["eps"])
        except TypeError:
            raise GemError("eps must be a sequence of integers") from None
        if not all(_is_int(c) for c in opts["eps"]):
            raise GemError("eps must be a sequence of integers")
    if opts["mode"] not in ("auto", "closed", "gts"):
        raise GemError("mode must be auto, closed or gts")
    if opts["format"] not in ("json", "dot", "svg"):
        raise GemError("format must be json, dot or svg")
    return opts


def _recorded_options(opts):
    """Normalized options as records and cache keys carry them.

    They add `sweep`, which follows from eps: true when no fixed eps is
    given.
    """
    return _jsonable(dict(opts, sweep=opts["eps"] is None))


def run_key(gf, opts):
    """Content address of a run: gem, options, tool version."""
    blob = (gem_text(gf) + "\0"
            + json.dumps(_recorded_options(opts), sort_keys=True) + "\0"
            + __version__)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_pipeline(gf, options=None):
    """certify -> sweep -> diagram (assemble, verify, export) -> ledger.

    Returns (RunRecord, diagram bytes or None).  Deterministic given
    the gem and options; all failures land in the record's exit_code
    and error fields rather than escaping.

    pi1 is built only where no theorem answers it.  A verified closed
    diagram with some k_i = 0 proves pi1 = 1 and stores the trivial
    presentation (diagrams.prove_pi1_trivial), so the ledger runs after
    the diagram; otherwise the ledger builds pi1.  Every record that
    carries a report has its simply_connected flag settled first
    (validation.settle_simply_connected), early exits included.  A
    ledger violation wins over a diagram failure and leaves no
    diagram_ref; a diagram failure keeps the ledger's fields.
    """
    opts = normalize_options(options)
    return _run_keyed(gf, opts, run_key(gf, opts))


def _run_keyed(gf, opts, key):
    """run_pipeline on normalized options whose run_key is key, so that
    run_cached, which needs the key first, computes it once."""
    timings = {}
    t_start = time.perf_counter()
    # record fields, filled in as stages finish; unreached ones stay null
    done = {}
    report = None

    def record(exit_code, error=None):
        if report is not None:
            done["report"] = settle_simply_connected(g, report).as_dict()
        timings["total"] = round(time.perf_counter() - t_start, 6)
        return RunRecord(input_hash=key, name=gf.name,
                         options=_recorded_options(opts),
                         version=__version__,
                         timings=timings, exit_code=exit_code, error=error,
                         **done)

    try:
        work = relabel_apex(gf, opts["apex_color"])
    except GemError as exc:
        return record(EXIT_INVALID, str(exc)), None
    g = work.graph

    t0 = time.perf_counter()
    try:
        report = certify_Gs4(g, work.attestations)
    except (NotAGem, MultipleApexResidues) as exc:
        return record(EXIT_NOT_MEMBER, str(exc)), None
    except GemError as exc:
        return record(EXIT_INVALID, str(exc)), None
    timings["validate"] = round(time.perf_counter() - t0, 6)
    if not report.gs4_member:
        return record(EXIT_NOT_MEMBER,
                      "gem is outside the singular-apex class"), None

    if opts["mode"] == "closed" and not report.closed:
        return record(EXIT_INVALID,
                      "mode=closed but the gem is not proven closed"), None
    if opts["mode"] == "auto":
        cert_mode = "closed" if report.closed else "bounded"
    else:
        cert_mode = "closed" if opts["mode"] == "closed" else "bounded"

    if opts["eps"] is not None:
        try:
            orders = [_permutation(g, opts["eps"])]
        except GemError as exc:
            return record(EXIT_INVALID, str(exc)), None
    else:
        orders = cyclic_permutations(4)

    t0 = time.perf_counter()
    try:
        best = sweep(g, orders, budget=opts["budget"], mode=cert_mode)
    except Incomplete as exc:
        # the seeded scheduler is guaranteed to finish; reaching this
        # is an internal failure worth a loud exit code
        return record(EXIT_INTERNAL,
                      "scheduler failed after seeding: %s" % exc), None
    timings["sweep"] = round(time.perf_counter() - t0, 6)
    done["certificate"] = best.as_dict()

    diagram_bytes = failure = None
    t0 = time.perf_counter()
    if report.orientable:
        try:
            diagram = assemble_diagram(g, best.eps, best)
        except GemError as exc:
            failure = "diagram assembly failed: %s" % exc
        else:
            if diagram.record.ok:
                prove_pi1_trivial(diagram)
                diagram_bytes = export_diagram(diagram, opts["format"])
                diagram_ref = {
                    "sha256": hashlib.sha256(diagram_bytes).hexdigest(),
                    "format": opts["format"],
                    "mode": diagram.mode,
                    "verified": True,
                }
            else:
                failed = {k: v for k, v in diagram.record.checks.items()
                          if not v["pass"]}
                failure = ("diagram verification failed: %s"
                           % json.dumps(_jsonable(failed), sort_keys=True))
    else:
        diagram_ref = {"skipped": "diagram machinery needs an "
                                  "orientable (bipartite) gem"}
    timings["diagram"] = round(time.perf_counter() - t0, 6)

    t0 = time.perf_counter()
    ledger = bound_ledger(g, best, boundary_spheres=report.boundary_spheres)
    done["ledger"] = ledger.as_dict()
    done["violations"] = ledger.violations()
    timings["ledger"] = round(time.perf_counter() - t0, 6)
    if done["violations"]:
        return record(EXIT_INTERNAL, "bound ledger violated"), None
    if failure is not None:
        return record(EXIT_INTERNAL, failure), None
    done["diagram_ref"] = diagram_ref
    return record(EXIT_OK), diagram_bytes


# -- cache -------------------------------------------------------------------

def _atomic_write(path, data):
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cached_entry(rec_path, dgm_path):
    """A usable cache entry as (record bytes, diagram bytes, exit code).

    Returns None for an entry to recompute: a record that is unreadable
    or has no integer exit code, or one whose diagram_ref names a sha256
    that the diagram file is missing or does not match.  The diagram is
    None when the record names no sha256.
    """
    with open(rec_path, "rb") as fh:
        blob = fh.read()
    try:
        rec = json.loads(blob)
    except ValueError:
        return None
    code = rec.get("exit_code") if isinstance(rec, dict) else None
    if not _is_int(code):
        return None
    ref = rec.get("diagram_ref")
    digest = ref.get("sha256") if isinstance(ref, dict) else None
    if digest is None:
        return blob, None, code
    try:
        with open(dgm_path, "rb") as fh:
            dgm = fh.read()
    except FileNotFoundError:
        return None
    if hashlib.sha256(dgm).hexdigest() != digest:
        return None
    return blob, dgm, code


def run_cached(gf, options=None, cache_dir=None):
    """run_pipeline with a byte-for-byte directory cache.

    Returns (record bytes, diagram bytes or None, exit code, hit flag).
    """
    opts = normalize_options(options)
    key = run_key(gf, opts)
    rec_path = dgm_path = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        rec_path = os.path.join(cache_dir, key + ".json")
        dgm_path = os.path.join(cache_dir, key + ".diagram")
        if os.path.exists(rec_path):
            entry = _cached_entry(rec_path, dgm_path)
            if entry is not None:
                return entry + (True,)
            # damaged entry (e.g. a truncated write): a miss, rewritten
    rec, dgm = _run_keyed(gf, opts, key)
    blob = rec.to_bytes()
    if cache_dir:
        if dgm is not None:
            _atomic_write(dgm_path, dgm)
        _atomic_write(rec_path, blob)
    return blob, dgm, rec.exit_code, False


# -- batch -------------------------------------------------------------------

class BatchRow:
    __slots__ = ("path", "record_bytes", "diagram_bytes", "exit_code",
                 "cached", "error")

    def __init__(self, path, record_bytes=None, diagram_bytes=None,
                 exit_code=EXIT_OK, cached=False, error=None):
        self.path = path
        self.record_bytes = record_bytes
        self.diagram_bytes = diagram_bytes
        self.exit_code = exit_code
        self.cached = cached
        self.error = error


def _run_one(path, options, cache_dir):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        gf = parse_gem(data)
        blob, dgm, code, hit = run_cached(gf, options, cache_dir)
    except GemError as exc:
        return BatchRow(path, exit_code=EXIT_INVALID, error=str(exc))
    except OSError as exc:
        return BatchRow(path, exit_code=EXIT_IO, error=str(exc))
    except Exception as exc:
        # last resort: one failing input must not take the batch down
        return BatchRow(path, exit_code=EXIT_INTERNAL,
                        error="internal error: %s: %s"
                        % (type(exc).__name__, exc))
    return BatchRow(path, blob, dgm, code, hit)


def batch(paths, options=None, cache_dir=None):
    """Independent runs, one row per input path, original order kept."""
    opts = normalize_options(options)
    return [_run_one(p, opts, cache_dir) for p in paths]


# -- command line -------------------------------------------------------------

def _stem(path):
    base = os.path.basename(path)
    return base[:-len(".gem")] if base.endswith(".gem") else base


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="gemtrisect",
        description="Certify singular-apex gems, minimize stabilizations, "
                    "and emit verified trisection diagrams.")
    ap.add_argument("paths", nargs="+", help="gem files (text or json)")
    ap.add_argument("--eps", help='fixed color cycle, e.g. "0,1,2,3,4"')
    ap.add_argument("--apex-color", type=int, default=4, metavar="C",
                    help="treat color C as the singular apex (default 4)")
    ap.add_argument("--minimize-k", type=int, default=0, metavar="BUDGET",
                    help="exhaustive search budget below the greedy k")
    ap.add_argument("--mode", choices=("auto", "closed", "gts"),
                    default="auto")
    ap.add_argument("--format", choices=("json", "dot", "svg"),
                    default="json", help="diagram export format")
    ap.add_argument("--out", metavar="DIR",
                    help="write run records and diagrams here")
    ap.add_argument("--cache", metavar="DIR", help="result cache directory")
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help, or the usage and the error
        return EXIT_OK if exc.code == 0 else EXIT_INVALID

    eps = None
    if ns.eps is not None:
        try:
            eps = tuple(int(p) for p in ns.eps.split(","))
        except ValueError:
            print("error: --eps must be comma-separated integers",
                  file=sys.stderr)
            return EXIT_INVALID
        eps = tuple(_swap_color(c, ns.apex_color) for c in eps)
    options = {
        "eps": eps,
        "apex_color": ns.apex_color,
        "budget": ns.minimize_k,
        "mode": ns.mode,
        "format": ns.format,
    }
    try:
        options = normalize_options(options)
    except GemError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID

    if ns.out:
        try:
            os.makedirs(ns.out, exist_ok=True)
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_IO

    rows = batch(ns.paths, options, cache_dir=ns.cache)
    worst = EXIT_OK
    for row in rows:
        worst = max(worst, row.exit_code)
        if row.record_bytes is None:
            print("%s\terror exit=%d: %s" % (row.path, row.exit_code,
                                             row.error))
            continue
        rec = json.loads(row.record_bytes)
        cert = rec.get("certificate") or {}
        line = "%s\texit=%d" % (row.path, row.exit_code)
        if cert:
            line += "\tgenus=%s k=%s eps=%s" % (
                cert.get("genus"), cert.get("k"),
                ",".join(str(c) for c in cert.get("eps", ())))
        if row.cached:
            line += "\t(cached)"
        if rec.get("error"):
            line += "\t%s" % rec["error"]
        print(line)
        if ns.out:
            stem = _stem(row.path)
            tag = rec["input_hash"][:8]
            try:
                _atomic_write(os.path.join(
                    ns.out, "%s.%s.run.json" % (stem, tag)),
                    row.record_bytes)
                if row.diagram_bytes is not None:
                    ext = rec["diagram_ref"]["format"]
                    _atomic_write(os.path.join(
                        ns.out, "%s.%s.diagram.%s" % (stem, tag, ext)),
                        row.diagram_bytes)
            except OSError as exc:
                print("%s\twrite failed: %s" % (row.path, exc))
                worst = max(worst, EXIT_IO)
    return worst


if __name__ == "__main__":
    sys.exit(main())
