"""The benchmark's own tests, at tiny sizes.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def test_spec_workloads_exist_with_their_reasons():
    for w in SPEC["workloads"]:
        assert w["why"] == bench.workloads.WHY[w["name"]]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_metrics_present_and_traced_counts_repeat(workload):
    plain, prov = bench.run(workload, 3, 0.1, 0, tiny=True, setup_samples=2)
    assert plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == END_TO_END
    assert prov["fail_ratio"] == 0.0
    assert all(r["order"] is None or r["order"] > 0 for r in prov["rungs"])

    first, p1 = bench.run(workload, 3, 0.1, 1, tiny=True, setup_samples=1)
    second, p2 = bench.run(workload, 3, 0.1, 1, tiny=True, setup_samples=1)
    assert set(first["metrics"]) == PER_LAYER
    calls = [{k: v["value"] for k, v in r["metrics"].items()
              if k.endswith(".calls")} for r in (first, second)]
    assert calls[0] == calls[1]
    assert any(calls[0].values())
    assert (prov["answers_sha256"] == p1["answers_sha256"]
            == p2["answers_sha256"])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_wrong_expected_answer_is_a_failure(workload):
    result, prov = bench.run(workload, 3, 0.05, 0, tiny=True, offset=1,
                             setup_samples=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert prov["fail_ratio"] == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "blob_ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=60)
    assert proc.returncode != 0
    assert b"metrics" not in proc.stdout
