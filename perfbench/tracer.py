"""Spans around every public function of the seven gemtrisect modules.

The tracer wraps each public function defined in a module and rebinds
every name, in every one of those modules, that refers to it, so calls
between modules and inside one module are both recorded; so is
ColoredGraph.build.  Nothing under src/ changes.

A span is (function, op, parent, start, end, flag), kept in memory in
one log per thread, so the worker threads of cli.batch nest on their
own stacks.  Self time is a span's duration minus what its direct
children cover.
"""

import array
import functools
import inspect
import os
import statistics
import threading
import time
from collections import defaultdict

MODULES = ("cli", "graphs", "embedding", "validation", "trisection",
           "homology", "diagrams")

# stage -> the call whose inclusive span it is
STAGES = {
    "parse": "cli.parse_gem",
    "certify": "validation.certify_Gs4",
    "sweep": "trisection.minimize_k",
    "ledger": "homology.bound_ledger",
    "diagram": "diagrams.assemble_diagram",
    "export": "diagrams.export_diagram",
}


# A span's flag is 1 when the call returned and, for these functions,
# when its result is a useful outcome: a dipole found, a cache hit.
FLAGS = {
    "graphs.find_dipole": lambda result: result is not None,
    "cli.run_cached": lambda result: bool(result[3]),
}


class SpanLog:
    """The spans of one thread, in columns."""

    def __init__(self, thread_name):
        self.thread_name = thread_name
        self.fid = array.array("i")
        self.op = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.flag = array.array("b")
        self.stack = []

    def __len__(self):
        return len(self.fid)


class Tracer:
    """Wraps the package's public functions while installed.

    `op` is the index of the op in progress, -1 between ops; spans and
    notes are filed under it.
    """

    def __init__(self):
        self.names = []
        self.logs = []
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._bindings = []     # (owner, name, original, wrapper)
        # per op: distinct pi1 input graphs; curve steps and
        # intersection pairs of every assembled diagram
        self.pi1_keys = defaultdict(set)
        self.curve_steps = defaultdict(int)
        self.intersection_pairs = defaultdict(int)

    # -- installation ----------------------------------------------------

    def install(self):
        """Rebind every wrapped name; the wrappers are made once."""
        if not self._bindings:
            self._bindings = self._make_bindings()
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self._bindings:
            setattr(owner, name, original)

    def _make_bindings(self):
        import importlib

        mods = [importlib.import_module("gemtrisect." + m) for m in MODULES]
        wrappers = {}
        for short, mod in zip(MODULES, mods):
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, "%s.%s" % (short, name))
        bindings = [(mod, name, obj, wrappers[obj])
                    for mod in mods for name, obj in vars(mod).items()
                    if inspect.isfunction(obj) and obj in wrappers]
        cg = mods[MODULES.index("graphs")].ColoredGraph
        build = cg.__dict__["build"]
        bindings.append((cg, "build", build, staticmethod(
            self._wrap(build.__func__, "graphs.ColoredGraph.build"))))
        return bindings

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            log = SpanLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self.logs.append(log)
        return log

    def _wrap(self, func, qname):
        fid = len(self.names)
        self.names.append(qname)
        flag_of = FLAGS.get(qname)
        after = {"homology.pi1_presentation": self._note_pi1,
                 "diagrams.assemble_diagram": self._note_diagram}.get(qname)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            log = tracer._log()
            idx = len(log.fid)
            log.fid.append(fid)
            log.op.append(tracer.op)
            log.parent.append(log.stack[-1] if log.stack else -1)
            log.end.append(0.0)
            log.flag.append(0)
            log.stack.append(idx)
            log.start.append(perf())
            try:
                result = func(*args, **kwargs)
            finally:
                log.end[idx] = perf()
                log.stack.pop()
            log.flag[idx] = 1 if flag_of is None else flag_of(result)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _note_pi1(self, args, result):
        g = args[0]
        with self._lock:
            self.pi1_keys[self.op].add((g.n, g.edges))

    def _note_diagram(self, args, diagram):
        a, b, c = len(diagram.alpha), len(diagram.beta), len(diagram.gamma)
        steps = sum(len(cv.steps) for _, cs in diagram.systems()
                    for cv in cs)
        with self._lock:
            self.curve_steps[self.op] += steps
            # verify_diagram's _signed_intersection calls: every curve
            # with itself, alpha x beta, and gamma against alpha and beta
            self.intersection_pairs[self.op] += a + b + c + a * b + c * (a + b)

    # -- results ---------------------------------------------------------

    def per_op(self):
        """{name: {op: [calls, self_s, inclusive_s, flags]}} over all spans."""
        table = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0, 0]))
        for log in self.logs:
            n = len(log)
            dur = [log.end[i] - log.start[i] for i in range(n)]
            covered = [0.0] * n
            for i in range(n):
                p = log.parent[i]
                if p >= 0:
                    covered[p] += dur[i]
            for i in range(n):
                op = log.op[i]
                if op < 0:
                    continue
                row = table[self.names[log.fid[i]]][op]
                row[0] += 1
                row[1] += dur[i] - covered[i]
                row[2] += dur[i]
                row[3] += log.flag[i]
        return table

    def write(self, path):
        """Write every span as tab-separated text, one line per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("thread\tname\top\tparent\tstart\tend\tflag\n")
            for log in self.logs:
                t = log.thread_name
                names = self.names
                fh.writelines(
                    "%s\t%s\t%d\t%d\t%.9f\t%.9f\t%d\n"
                    % (t, names[log.fid[i]], log.op[i], log.parent[i],
                       log.start[i], log.end[i], log.flag[i])
                    for i in range(len(log)))


def layer_metrics(tracer, ops):
    """Per-layer metrics over traced ops 0..ops-1.

    .calls is calls per op; .self_s and stage times are the median over
    ops of the per-op sum of self or inclusive time.  A ratio is useful
    outcomes over calls (dipole found, cache hit, schedule completed) or
    distinct input graphs over calls; it reads 0 when there was no call.
    In batch_cache the times add up over the worker threads of
    cli.batch, and include their waits for the interpreter lock.
    """
    table = tracer.per_op()

    def rows(name):
        by_op = table.get(name, {})
        return [by_op.get(op, (0, 0.0, 0.0, 0)) for op in range(ops)]

    def calls(*names):
        return sum(r[0] for n in names for r in rows(n)) / ops

    def self_s(*names):
        return statistics.median(
            sum(col) for col in zip(*([r[1] for r in rows(n)]
                                      for n in names)))

    def incl_s(name):
        return statistics.median(r[2] for r in rows(name))

    def ratio(name):
        total = sum(r[0] for r in rows(name))
        return sum(r[3] for r in rows(name)) / total if total else 0.0

    m = {}
    for stage, name in STAGES.items():
        m["cli.stage.%s_s" % stage] = (incl_s(name), "s")
    for name in ("cli.parse_gem", "cli.run_pipeline", "cli.run_cached"):
        m[name + ".self_s"] = (self_s(name), "s")
    m["cli.run_cached.hit_ratio"] = (ratio("cli.run_cached"), "ratio")
    m["cli.batch.s"] = (incl_s("cli.batch"), "s")

    for name in ("graphs.residues", "graphs.find_dipole",
                 "graphs.bicolored_cycles", "embedding.rho",
                 "validation.check_surface_residues",
                 "trisection.minimize_k", "trisection.build_Q",
                 "trisection.collapse_schedule",
                 "homology.pi1_presentation", "homology.chain_complex"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    # every graph is built by ColoredGraph.build, through build_graph or not
    m["graphs.build_graph.calls"] = (calls("graphs.ColoredGraph.build"),
                                     "count")
    m["graphs.build_graph.self_s"] = (
        self_s("graphs.build_graph", "graphs.ColoredGraph.build"), "s")
    m["graphs.find_dipole.hit_ratio"] = (ratio("graphs.find_dipole"),
                                         "ratio")
    for name in ("graphs.cancel_dipole", "graphs.residue_subgem",
                 "graphs.is_bipartite", "embedding.subgraph_rho",
                 "trisection.stabilization_set"):
        m[name + ".calls"] = (calls(name), "count")
    for name in ("embedding.stabilized_surface", "validation.certify_Gs4",
                 "validation.classify_colors", "homology.bound_ledger",
                 "diagrams.assemble_diagram", "diagrams.alpha_beta_curves",
                 "diagrams.gamma_curves", "diagrams.verify_diagram",
                 "diagrams.export_diagram"):
        m[name + ".self_s"] = (self_s(name), "s")
    m["trisection.collapse_schedule.success_ratio"] = (
        ratio("trisection.collapse_schedule"), "ratio")
    pi1_calls = sum(r[0] for r in rows("homology.pi1_presentation"))
    distinct = sum(len(tracer.pi1_keys[op]) for op in range(ops))
    m["homology.pi1_presentation.distinct_ratio"] = (
        distinct / pi1_calls if pi1_calls else 0.0, "ratio")
    m["diagrams.curve_steps"] = (
        sum(tracer.curve_steps[op] for op in range(ops)) / ops, "count")
    m["diagrams.intersection_pairs"] = (
        sum(tracer.intersection_pairs[op] for op in range(ops)) / ops,
        "count")
    return m

