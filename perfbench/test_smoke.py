"""Smoke test of the benchmark itself, at the unit tests' tiny shapes.

    python -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced. The test checks the
result line against BENCHMARK.json (every named metric, with its unit), that
no output check failed, and that the report records the environment.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    for key in ("git_sha", "config_hash", "seed", "nproc", "python", "numpy", "blas",
                "blas_threads"):
        assert key in report

    if trace and workload in ("train", "decode"):
        # the top-level layer spans cover the traced op time
        assert 90.0 <= result["metrics"]["trace.accounted_pct"]["value"] <= 100.0
    if workload == "train":
        assert math.isfinite(report["train_loss"])
    if workload == "decode":
        assert len(report["decode_token_sha256"]) == 64


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "decode", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
