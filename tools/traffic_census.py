"""List the lines of ``src/symshadows`` that no benchmark workload runs.

Usage, from the root of a checkout::

    python tools/traffic_census.py [--rounds N] [--tiny]

Every workload of ``perfbench/workloads.py`` runs in this one process with
seed 7, as the benchmark's worker runs it: set-up, the determinism re-run
of its first call, ``N`` rounds (2 by default) and its final checks.  The
standard library's ``trace`` counter records every line that runs; only
the lines of ``src/symshadows`` are reported.  The benchmark files are
imported, not changed.

For each function of ``src/symshadows`` with an executable line that no
workload ran, one line is printed: ``module.py:first-line qualname``, the
count of its unrun lines against its executable lines, and their line
numbers as ranges, or ``never called`` when none of them ran.  A summary line ends the output.
Nested functions and classes count apart; module-level code runs at import
and is not listed.  Seeded inputs make the census the same from run to
run.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symshadows"
SEED = 7


def _load():
    """``WORKLOADS``, with this checkout's ``src`` first on the path."""
    for path in (str(ROOT / "perfbench"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import WORKLOADS

    return WORKLOADS


def _functions(code: types.CodeType):
    """Every function's code nested in ``code``, at any depth; class bodies
    run at import and are left out, their methods are not."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from _functions(const)


def executable_lines(path: Path) -> dict[tuple[int, str], set[int]]:
    """Per function of ``path``, ``(first line, qualname)``, the lines its code runs on."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    table = {}
    for code in _functions(module):
        name = getattr(code, "co_qualname", code.co_name)
        lines = {line for _, _, line in code.co_lines() if line is not None}
        # The def line reports no line event unless the body is on it too.
        if len(lines) > 1:
            lines.discard(code.co_firstlineno)
        table[(code.co_firstlineno, name)] = lines
    return table


def _run(workload, rounds: int) -> None:
    workload.setup()
    workload.first_call_is_deterministic()
    for r in range(rounds):
        workload.run_round(r)
    workload.final_checks()


def census(rounds: int, tiny: bool) -> dict[str, set]:
    """Run each workload; per workload, the ``(file name, line)`` pairs that ran."""
    ran = {}
    for name, workload in _load().items():
        tracer = trace.Trace(count=1, trace=0)
        tracer.runfunc(_run, workload(SEED, tiny=tiny), rounds)
        ran[name] = set(tracer.results().counts)
    return ran


def _ranges(lines) -> str:
    """``1-3, 7`` for lines 1, 2, 3 and 7."""
    parts, lines = [], sorted(lines)
    start = prev = lines[0]
    for line in lines[1:] + [None]:
        if line is not None and line == prev + 1:
            prev = line
            continue
        parts.append(str(start) if start == prev else f"{start}-{prev}")
        if line is not None:
            start = prev = line
    return ", ".join(parts)


def report(runs: dict[str, set]) -> list[str]:
    """The output lines for the runs of ``runs``."""
    ran = set().union(*runs.values())
    out, total, unrun_total = [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        for (first, name), lines in sorted(executable_lines(path).items()):
            unrun = {line for line in lines if (str(path), line) not in ran}
            total += len(lines)
            unrun_total += len(unrun)
            if not unrun:
                continue
            where = f"{path.name}:{first} {name}"
            if unrun == lines:
                out.append(f"{where}: never called")
            else:
                out.append(f"{where}: {len(unrun)}/{len(lines)} lines unrun: {_ranges(unrun)}")
    out.append(
        f"{total - unrun_total} of {total} executable lines ran in "
        f"{', '.join(runs)}"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=2, help="rounds per workload (default 2)")
    parser.add_argument("--tiny", action="store_true", help="the workloads' tiny sizes")
    args = parser.parse_args(argv)
    for line in report(census(args.rounds, args.tiny)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
