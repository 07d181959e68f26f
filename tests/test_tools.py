"""The checkout's tools run on a plain checkout."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traffic_census_lists_what_no_workload_runs():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "traffic_census.py"), "--tiny", "--rounds", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    *functions, summary = result.stdout.splitlines()
    counts = re.fullmatch(
        r"(\d+) of (\d+) executable lines ran in estimate_uo, estimate_sp, sweep_fit", summary
    )
    assert counts and 0 < int(counts[1]) < int(counts[2]), summary
    # No workload runs the self-check suites; every one estimates.
    assert any(re.fullmatch(r"verify\.py:\d+ run_suite: never called", f) for f in functions)
    assert not any(re.match(r"shadows\.py:\d+ run_estimation: never", f) for f in functions)
