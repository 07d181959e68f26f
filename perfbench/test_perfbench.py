"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_without_failures(workload, trace):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0  # fail_frac
    assert result["correct"] is True
    for metric in declared:
        assert f"metric {metric['name']} = " in proc.stdout


def test_each_workload_records_its_reason():
    declared = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert declared == {name: workload.why for name, workload in WORKLOADS.items()}


def test_traced_self_times_sum_to_round_wall_time():
    workload = WORKLOADS["sweep_fit"](seed=5, tiny=True)
    workload.setup()
    tracer = Tracer()
    traced, untraced, sums = [], [], []
    for r in range(20):
        if r % 2:
            t0 = time.perf_counter()
            workload.run_round(r)
            untraced.append(time.perf_counter() - t0)
            continue
        tracer.install()
        try:
            t0 = time.perf_counter()
            root = tracer.open("round")
            workload.run_round(r)
            tracer.close(root)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        sums.append(sum(tracer.self_times(root).values()))
    overhead_frac = statistics.median(traced) / statistics.median(untraced) - 1.0
    for wall, total in zip(traced, sums):
        assert abs(total - wall) <= abs(overhead_frac) * wall


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "estimate_uo", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
