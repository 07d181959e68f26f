"""Run one workload of the symshadows benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload estimate_uo --seed 1 --seconds 25 --trace 0

Workloads (defined, with the reason for each, in ``workloads.py``):
``estimate_uo``, ``estimate_sp`` and ``sweep_fit``.

Each measurement runs in a fresh interpreter (``worker.py``) with as many
BLAS threads as ``nproc``.  With ``--trace 0`` the end-to-end metrics are
printed; ``setup_s`` is the median over ``SETUP_REPEATS`` fresh processes,
the last of which goes on to run the timed rounds.  With ``--trace 1`` a
single traced process gives the per-layer metrics.

Stdout carries one ``metric`` line per metric with its unit, a ``meta``
line describing what the run ran on, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``fail_frac`` is
``failed / attempted``.  The exit code is 0 only when a result was
printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh processes whose set-up time enters the median ``setup_s``.
SETUP_REPEATS = 3
#: Wall-clock limit for the whole command, in seconds.
DEADLINE_S = 170.0


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _worker_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _run_worker(args, env, deadline: float, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd,
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small dimensions, for the benchmark's own tests"
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "symshadows" / "__init__.py").is_file():
        print(f"no symshadows sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = _worker_env(nproc)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(_run_worker(args, env, deadline, setup_only=True)["setup_s"])
        result = _run_worker(args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    info = result.pop("info")
    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        info["setup_s_runs"] = setups
    meta = {
        "symshadows": info.pop("symshadows_version"),
        "kernel_backend": info.pop("kernel_backend"),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": info.pop("numpy_version"),
        "blas": info.pop("blas"),
        "blas_threads": nproc,
        "nproc": nproc,
        "seed": args.seed,
        "argv": [Path(sys.argv[0]).name] + argv,
    }
    print("meta " + json.dumps(meta))
    print("info " + json.dumps(info))
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"metric fail_frac = {result['failed'] / result['attempted']:.6g} frac")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
