"""One benchmark process: set a workload up cold, then run it closed-loop.

``run.py`` starts this script as a fresh interpreter so that ``setup_s``
covers the import, input generation and every cold ``invert_channel``
build, and so that ``peak_rss_mb`` belongs to one workload.  It prints one
JSON object on its last stdout line.

With ``--trace 1`` the run alternates traced and untraced rounds: traced
rounds give the per-layer split, untraced ones the baseline for
``trace.overhead_frac``.  A layer's ``*_s`` metric is its mean self time
per traced round, and 0 when the workload never calls it;
``channel.inverse_build_s`` is the set-up total, since every build happens
there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import numpy as np

import symshadows
from symshadows import channel
from symshadows.backend import active_backend
from tracing import LAYER_SPANS, Tracer
from workloads import WORKLOADS


def tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with ten rounds beyond it.

    With ten rounds or fewer there is no such percentile; the maximum is
    returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _blas_config() -> dict | str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        setup_root = tracer.open("setup")
    workload.setup()
    deterministic = workload.first_call_is_deterministic()
    if tracer is not None:
        tracer.close(setup_root)
        tracer.uninstall()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    attempted, failed = 1, int(not deterministic)
    if not deterministic:
        print("first call is not deterministic under a fixed seed", flush=True)
    cache_info = channel.invert_channel.cache_info
    walls: list[float] = []
    traced_walls: list[float] = []
    traced_roots: list[int] = []
    round_counts: list[dict] = []
    hits_per_round: set[int] = set()
    tts: list[float] = []
    # A traced run needs at least one traced and one untraced round.
    min_rounds = 1 if tracer is None else 2
    stop = time.perf_counter() + args.seconds
    r = 0
    while r < min_rounds or time.perf_counter() < stop:
        traced = tracer is not None and r % 2 == 0
        if traced:
            tracer.counts.clear()
            tracer.install()
        hits = cache_info().hits
        t0 = time.perf_counter()
        if traced:
            root = tracer.open("round")
        outcome = workload.run_round(r)
        if traced:
            tracer.close(root)
        wall = time.perf_counter() - t0
        hits_per_round.add(cache_info().hits - hits)
        if traced:
            tracer.uninstall()
            traced_walls.append(wall)
            traced_roots.append(root)
            round_counts.append(dict(tracer.counts))
        else:
            walls.append(wall)
        attempted += outcome.calls
        failed += outcome.failed
        tts.append(outcome.time_to_sem_s)
        r += 1
    checks, check_failures = workload.final_checks()
    attempted += checks
    failed += check_failures
    # Exact counts: every round makes the same calls, so the cache hits and,
    # on traced rounds, the draw counts must repeat round after round.
    attempted += 1
    if len(hits_per_round) != 1:
        failed += 1
        print(f"cache hits differ between rounds: {sorted(hits_per_round)}", flush=True)

    info = {
        "symshadows_version": symshadows.__version__,
        "kernel_backend": active_backend(),
        "numpy_version": np.__version__,
        "blas": _blas_config(),
        "rounds": r,
        "setup_s": setup_s,
    }
    if tracer is None:
        tail_s, tail_pct = tail(walls)
        info.update(round_s_tail_percentile=tail_pct, round_count=len(walls))
        metrics = {
            "setup_s": (setup_s, "s"),
            "draws_per_s": (workload.draws_per_round * len(walls) / sum(walls), "1/s"),
            "round_s_p50": (statistics.median(walls), "s"),
            "round_s_tail": (tail_s, "s"),
            "time_to_sem_s": (statistics.median(tts), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        expected = {"haar.matrices": workload.draws_per_round, "spaces.draws": workload.draws_per_round}
        attempted += 1
        mismatched = [
            counts for counts in round_counts
            if any(counts.get(k, 0) != v for k, v in expected.items())
            or counts.get("channel.inverse_builds", 0) != 0
        ]
        setup_times = tracer.self_times(setup_root)
        builds = sum(1 for span in tracer.spans if span[0] == "channel.inverse_build")
        if builds != workload.distinct_specs:
            mismatched.append({"channel.inverse_builds": builds})
        if mismatched:
            failed += 1
            print(f"exact counts mismatch: expected {expected}, got {mismatched[0]}", flush=True)
        per_round: dict[str, float] = {}
        for root in traced_roots:
            for name, seconds in tracer.self_times(root).items():
                per_round[name] = per_round.get(name, 0.0) + seconds / len(traced_roots)
        counts = round_counts[0]
        checked = sum(c.get("channel.projection_checks", 0) for c in round_counts)
        projected = sum(c.get("channel.projected", 0) for c in round_counts)
        untraced = statistics.median(walls)
        metrics = {f"{name}_s": (per_round.get(name, 0.0), "s") for name in LAYER_SPANS}
        metrics["channel.inverse_build_s"] = (setup_times.get("channel.inverse_build", 0.0), "s")
        metrics.update(
            {
                "haar.matrices": (counts.get("haar.matrices", 0), "count"),
                "spaces.draws": (counts.get("spaces.draws", 0), "count"),
                "channel.inverse_builds": (builds, "count"),
                "channel.cache_hits": (min(hits_per_round), "count"),
                "channel.projected_frac": (projected / checked if checked else 0.0, "frac"),
                "shadows.prob_gap_max": (tracer.prob_gap_max, "prob"),
                "shadows.clipped_mass": (tracer.clipped_mass / max(1, tracer.born_rows), "prob"),
                "trace.overhead_frac": (statistics.median(traced_walls) / untraced - 1.0, "frac"),
            }
        )
        info.update(
            traced_rounds=len(traced_walls),
            traced_round_s_p50=statistics.median(traced_walls),
            untraced_round_s_p50=untraced,
            round_self_s=per_round,
            setup_self_s=setup_times,
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
