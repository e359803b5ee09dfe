"""Seeded gem-family benchmark for gemtrisect.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pp_ladder --seed 1 --seconds 50 \
        --trace 0

Each workload is a ladder of rungs, each with a pool of seeded inputs
(see workloads.py).  A round runs one op per rung, smallest first; a
run holds whole rounds, at least one per pooled input, and more until
--seconds have passed.  With --trace 0 the run reports the end-to-end
metrics.

Set-up times, and op times of every workload but those in
workloads.THREADED, are rescaled to a reference speed of the machine.
On a shared host the speed drifts by tens of percent in phases that last
tens of seconds to minutes: on a 2-CPU shared virtual machine, Python
3.11, a fixed loop of pure Python ran at 7.6 ms for 25 s, then at 5.3 ms.
So right before each op and each set-up the
benchmark times a fixed loop of pure Python, CALIBRATION_ITERS steps,
fastest of CALIBRATION_REPEATS, and reports the wall time times
REF_LOOP_S over the loop's time: the seconds on a machine where the loop
takes REF_LOOP_S.  The loop never calls the package, so a change to the
package moves the rescaled times as it moves wall time.  The loop runs on
the calling thread and times its CPU only, so ops that spread over a
thread pool are reported in plain wall seconds.  The wall-time figures
are printed with the provenance too.

With --trace 1 it makes a fixed number of rounds, each once
untraced and once with every public function of the package wrapped
(tracer.py), and reports the per-layer metrics.

Every op's output is checked against a known answer.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The lines before it print every metric by name and unit, then a JSON
provenance line with the seed, the rungs, the Python version, the CPU
count, fail_ratio and the sha256 digest of every answer.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.SIZES)
SETUP_SAMPLES = 5           # set-ups per run: this process plus 4 fresh ones
TRACE_ROUNDS = 4            # rounds of a traced run, at least
CALIBRATION_ITERS = 20000   # steps of the calibration loop
CALIBRATION_REPEATS = 3     # its fastest of this many runs counts
REF_LOOP_S = 0.002          # the loop's time at the reference speed
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


class BenchError(Exception):
    """The benchmark cannot run here: no package to measure."""


def import_package():
    """Import gemtrisect from this checkout's src/, nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "gemtrisect")):
        raise BenchError("no gemtrisect package under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gemtrisect

    if not os.path.abspath(gemtrisect.__file__).startswith(SRC + os.sep):
        raise BenchError("imported gemtrisect from %s, not %s"
                         % (gemtrisect.__file__, SRC))


def _calibration_loop(n):
    table = list(range(256))
    acc = 0
    for i in range(n):
        j = (i * 7) & 255
        acc ^= table[j]
        table[j] = acc + i
    return acc


def calibrate():
    """Seconds the calibration loop takes now, fastest of a few runs."""
    best = math.inf
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        _calibration_loop(CALIBRATION_ITERS)
        best = min(best, time.perf_counter() - t0)
    return best


def set_up(workload, seed, tiny):
    """Import the package and build the inputs.

    Returns (rungs, ctx, wall seconds, calibration seconds).
    """
    cal = calibrate()
    t0 = time.perf_counter()
    import_package()
    os.makedirs(TMP_DIR, exist_ok=True)
    ctx = {"tmp": tempfile.mkdtemp(prefix=workload + "-", dir=TMP_DIR),
           "cleanup": []}
    rungs = workloads.MAKE_INPUTS[workload](seed, tiny, ctx["tmp"])
    return rungs, ctx, time.perf_counter() - t0, cal


def fresh_set_ups(workload, seed, tiny, count):
    """Time `count` set-ups, each in a fresh interpreter.

    Returns (wall seconds, calibration seconds, input digests); one
    interpreter at a time.
    """
    times, cals, digests = [], [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=120, check=True)
        row = json.loads(proc.stdout.decode().splitlines()[-1])
        times.append(row["setup_s"])
        cals.append(row["calibration_s"])
        digests.append(row["inputs_sha256"])
    return times, cals, digests


class Runner:
    """Runs rounds of ops, checks each answer, and keeps the samples."""

    def __init__(self, workload, rungs, ctx, offset=0):
        self.workload = workload
        self.rungs = rungs
        self.ctx = ctx
        self.offset = offset
        self.op = workloads.OPS[workload]
        self.pool = max(len(r.items) for r in rungs)
        self.attempted = 0
        self.failed = 0
        self.answers = {}           # (rung, item) -> digest of the answer

    def run_op(self, i, r):
        """Time one op on item r of rung i.

        Returns (wall seconds, calibration seconds).
        """
        rung = self.rungs[i]
        j = r % len(rung.items)
        item = rung.items[j]
        cal = calibrate()
        gc.collect()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.op(item, self.ctx)
        except Exception:
            elapsed = time.perf_counter() - t0
            self.fail("%s raised:\n%s" % (rung.label, traceback.format_exc()))
            return elapsed, cal
        elapsed = time.perf_counter() - t0
        digest, errors = workloads.check(self.workload, rung.label, item,
                                         out, self.offset)
        workloads.cleanup(self.ctx)
        if self.answers.setdefault((i, j), digest) != digest:
            errors.append("%s input %d: answer changed between ops"
                          % (rung.label, j))
        if errors:
            self.fail("; ".join(errors))
        return elapsed, cal

    def fail(self, message):
        self.failed += 1
        print("FAIL %s: %s" % (self.workload, message), file=sys.stderr)

    def round(self, r, trace=None):
        """One op on input r of every rung.

        Returns [(wall seconds, calibration seconds)], one per rung.
        """
        times = []
        for i in range(len(self.rungs)):
            if trace is not None:
                trace.op = r * len(self.rungs) + i
            times.append(self.run_op(i, r))
            if trace is not None:
                trace.op = -1
        return times

    def rounds(self, count, seconds):
        """At least `count` whole rounds, more until `seconds` have passed.

        Returns ([per-rung (wall, calibration) seconds], rounds).
        """
        times = [[] for _ in self.rungs]
        done = 0
        start = time.perf_counter()
        while done < count or time.perf_counter() - start < seconds:
            for per, t in zip(times, self.round(done)):
                per.append(t)
            done += 1
        return times, done

    def digest(self):
        """sha256 over the answers to every input, in input order."""
        return hashlib.sha256("".join(
            self.answers[key] for key in sorted(self.answers)).encode()
        ).hexdigest()


def seconds_of(samples, rescale=True):
    """Seconds from (wall, calibration) pairs, at the reference speed if
    `rescale`, else plain wall seconds."""
    return [t * REF_LOOP_S / cal if rescale else t for t, cal in samples]


def timings(rungs, ops, wall, setups):
    """The time metrics of a run, from per-rung lists of op seconds.

    `ops` are the seconds to report, `wall` the same ops in wall seconds.
    growth_exp is a ratio of two medians of one run, in which the
    machine's speed cancels, so it comes from `wall`.  gems_per_s is one
    pass over every pooled input of every rung, each input at the median
    of its ops: a run ends part way through a pass, and inputs differ in
    cost, so plain totals would weigh them unevenly.
    """
    flat = [t for ts in ops for t in ts]
    top, below = statistics.median(wall[-1]), statistics.median(wall[-2])
    gems = pass_s = 0.0
    for rung, ts in zip(rungs, ops):
        pool = len(rung.items)
        for j, item in enumerate(rung.items):
            gems += workloads.gems_in(item)
            pass_s += statistics.median(ts[j::pool])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.p50": (statistics.median(flat), "s"),
        "op_s.p90": (statistics.quantiles(flat, n=10, method="inclusive")[8],
                     "s"),
        "gems_per_s": (gems / pass_s, "1/s"),
        "growth_exp": (math.log2(top / below), "log2"),
    }


def run(workload, seed, seconds, trace, tiny=False, offset=0,
        setup_samples=SETUP_SAMPLES):
    """Run one workload; returns (result line dict, provenance dict).

    Untraced, the run makes whole rounds for `seconds`, and at least one
    round per pooled input.  Traced, it makes a fixed number of rounds,
    each once untraced and once traced, so call counts repeat exactly.
    """
    rungs, ctx, setup_here, cal_here = set_up(workload, seed, tiny)
    raw = cals = None
    try:
        inputs = workloads.inputs_digest(rungs)
        setup_times, setup_cals, setup_digests = fresh_set_ups(
            workload, seed, tiny, setup_samples - 1)
        setups = list(zip(setup_times + [setup_here],
                          setup_cals + [cal_here]))
        runner = Runner(workload, rungs, ctx, offset)
        if any(d != inputs for d in setup_digests):
            runner.fail("the same seed built different inputs")
        runner.run_op(0, 0)                   # warm-up, untimed
        if not trace:
            times, done = runner.rounds(runner.pool, seconds)
            wall = [seconds_of(samples, False) for samples in times]
            ops = [seconds_of(samples, workload not in workloads.THREADED)
                   for samples in times]
            metrics = timings(rungs, ops, wall, seconds_of(setups))
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
            raw = {name: value for name, (value, _) in timings(
                rungs, wall, wall, seconds_of(setups, False)).items()}
            cals = [c for samples in times for _, c in samples]
            samples = sum(map(len, times))
        else:
            # traced and untraced rounds alternate, so drift in machine
            # speed cancels out of the overhead ratio
            done = max(runner.pool, TRACE_ROUNDS)
            tr = tracing.Tracer()
            plain = traced = 0.0
            for r in range(done):
                plain += sum(t for t, _ in runner.round(r))
                with tr:
                    traced += sum(t for t, _ in runner.round(r, trace=tr))
            samples = done * len(rungs)
            metrics = tracing.layer_metrics(tr, samples)
            metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
            tr.write(os.path.join(OUT_DIR, "%s.spans.tsv" % workload))
    finally:
        workloads.cleanup(ctx)
        shutil.rmtree(ctx["tmp"], ignore_errors=True)

    provenance = {
        "workload": workload,
        "seed": seed,
        "why": workloads.WHY[workload],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "rungs": [r.provenance() for r in rungs],
        "rounds": done,
        "samples": samples,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted,
        "inputs_sha256": inputs,
        "answers_sha256": runner.digest(),
    }
    if raw is not None:
        provenance["wall_s"] = raw
        provenance["calibration_s.p50"] = statistics.median(cals)
        provenance["ref_loop_s"] = REF_LOOP_S
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return result, provenance


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny rungs, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it as JSON")
    ns = ap.parse_args(argv)
    try:
        if ns.setup_only:
            rungs, ctx, elapsed, cal = set_up(ns.workload, ns.seed, ns.tiny)
            digest = workloads.inputs_digest(rungs)
            shutil.rmtree(ctx["tmp"], ignore_errors=True)
            print(json.dumps({"setup_s": elapsed, "calibration_s": cal,
                              "inputs_sha256": digest}))
            return 0
        result, provenance = run(ns.workload, ns.seed, ns.seconds, ns.trace,
                                 ns.tiny)
    except (BenchError, ImportError, OSError,
            subprocess.SubprocessError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print("%-44s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(provenance, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
