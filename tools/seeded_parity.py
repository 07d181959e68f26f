"""Check that seeded outputs are bit-identical to those of another checkout.

Usage::

    python tools/seeded_parity.py BASE_DIR

``BASE_DIR`` holds the tree to compare with, for example the parent commit
unpacked with ``git archive``.  Each tree runs in a fresh interpreter with
its own ``src`` on the path and reports, for the same seeds:

* ``shadow_estimates`` for every family at d = 2, 3, 8 and 32 (and a second
  block split for AIII, BDI and CII), on a pure and on a full-rank state,
  in one default batch and in batches whose last one is short;
* ``run_estimation`` reports and ``sample_outcome`` records;
* deferred draws used on their own: ``apply``, ``apply_adjoint`` and
  ``matrix()`` of ``sample_point(..., dense=False)``, ``project`` of the
  Haar samplers' ``columns=`` draws, and ``entry_moments``;
* ``variance_sweep`` rows;
* the stdout of the ``estimate`` and ``sweep`` commands.

Floats are compared bit for bit.  The script prints the first difference
and exits with status 1, or prints a summary and exits with status 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DIMS = (2, 3, 8, 32)
EVEN_ONLY = {"SP", "AII", "DIII", "CI", "CII"}


def _encode(value):
    """JSON-ready form in which equal floats, and only they, compare equal."""
    import numpy as np

    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return {"re": _encode(value.real), "im": _encode(value.imag)}
        return [_encode(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    return value


def _states(d: int, seed: int):
    import numpy as np

    gen = np.random.default_rng(seed)
    psi = gen.standard_normal(d) + 1j * gen.standard_normal(d)
    psi /= np.linalg.norm(psi)
    g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    mixed = g @ g.conj().T
    mixed /= np.trace(mixed).real
    h = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    obs = (h + h.conj().T) / 2
    return {"pure": np.outer(psi, psi.conj()), "full": mixed}, obs


def _specs():
    from symshadows.spaces import ALL_FAMILIES, make_space

    for d in DIMS:
        for family in ALL_FAMILIES:
            if d % 2 and family in EVEN_ONLY:
                continue
            yield make_space(family, d)
            if family in ("AIII", "BDI") and d > 2:
                yield make_space(family, d, p=1)
            if family == "CII" and d >= 8:
                yield make_space(family, d, p=1)


def _deferred(spec, seed: int) -> list:
    """A deferred draw applied, applied again, then completed, on its own."""
    import numpy as np

    from symshadows import momentlab
    from symshadows.haar import haar_orthogonal, haar_symplectic, haar_unitary
    from symshadows.rng import RngStream
    from symshadows.spaces import sample_point

    d, size = spec.dim, 5
    gen = np.random.default_rng(seed)
    y = gen.standard_normal((d, size)) + 1j * gen.standard_normal((d, size))
    draw = sample_point(spec, RngStream(seed, (5,)), size, dense=False)
    out = [draw.apply(y), draw.apply_adjoint(y.real.copy()), draw.apply(y), draw.matrix()]
    sampler = {"U": haar_unitary, "O": haar_orthogonal, "SP": haar_symplectic}[spec.parent]
    columns = 1 if spec.parent != "SP" else max(1, d // 4)
    subspace = sampler(d, RngStream(seed, (6,)), size=size, dense=False, columns=columns)
    out += [subspace.project(y), subspace.project(y.real.copy())]
    target = [("E|V00|^2", (0, 0), 2, 0.0)]
    out += [c.estimate for c in momentlab.entry_moments(spec, target, 40, RngStream(seed, (7,)))]
    return out


def emit() -> dict:
    """Every seeded output of the tree on ``sys.path``, keyed by what made it."""
    from symshadows import shadows
    from symshadows.rng import RngStream

    out = {}
    for i, spec in enumerate(_specs()):
        states, obs = _states(spec.dim, i)
        shots = 300 if spec.dim == 32 else 200
        for kind, rho in states.items():
            key = f"{spec.label()} {kind}"
            out[f"shadow_estimates {key}"] = shadows.shadow_estimates(
                spec, rho, obs, shots, rng=RngStream(i, (1,))
            )
            out[f"shadow_estimates short-last-batch {key}"] = shadows.shadow_estimates(
                spec, rho, obs, shots, rng=RngStream(i, (2,)), batch_size=64
            )
            report = shadows.run_estimation(spec, rho, obs, 50, rng=RngStream(i, (3,)))
            out[f"run_estimation {key}"] = [
                report.mean, report.variance, report.sem, report.truth, report.projected
            ]
        gen = RngStream(i, (4,)).generator()
        records = [shadows.sample_outcome(spec, states["pure"], gen) for _ in range(3)]
        out[f"sample_outcome {spec.label()}"] = [[r.row, r.outcome] for r in records]
        if spec.dim <= 8:
            out[f"deferred {spec.label()}"] = _deferred(spec, i)
    config = shadows.SweepConfig(
        dim=8,
        families=("AIII", "U", "BDI", "O", "AI", "CII"),
        signature_fractions=(0.0, 0.5),
        diag_weights=(0.25, 1.0),
        n_instances=2,
        n_shots=200,
        seed=5,
    )
    out["variance_sweep"] = [list(vars(row).values()) for row in shadows.variance_sweep(config)]
    return _encode(out)


def _cli_outputs(env: dict, workdir: Path) -> dict:
    from_cli = {}
    for d, space in ((8, "AI"), (8, "BDI"), (6, "CII"), (32, "AIII")):
        states, obs = _states(d, 100 + d)
        for kind, rho in states.items():
            files = {}
            for name, m in (("state", rho), ("observable", obs)):
                path = workdir / f"{name}-{d}-{kind}.json"
                doc = {"dim": d, "re": m.real.tolist(), "im": m.imag.tolist()}
                path.write_text(json.dumps(doc))
                files[name] = str(path)
            argv = [
                "estimate", "--state", files["state"], "--observable", files["observable"],
                "--space", space, "--shots", "500", "--seed", "3",
            ]
            from_cli[f"cli {' '.join(argv[5:])} {d} {kind}"] = _run_cli(argv, env)
    sweep = ["sweep", "--dim", "6", "--c", "0,0.5", "--weights", "0.3,1", "--instances", "2",
             "--shots", "300", "--seed", "4"]
    from_cli["cli sweep csv"] = _run_cli(sweep, env)
    from_cli["cli sweep json"] = _run_cli(sweep + ["--out", "json"], env)
    return from_cli


def _run_cli(argv: list[str], env: dict) -> str:
    done = subprocess.run(
        [sys.executable, "-m", "symshadows.cli", *argv],
        env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode:
        sys.exit(f"symshadows {' '.join(argv)} exited {done.returncode}\n{done.stderr}")
    return done.stdout


def collect(tree: Path, workdir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, __file__, "--emit"], env=env, capture_output=True, text=True, check=False
    )
    if done.returncode:
        sys.exit(f"{tree}: emitting failed\n{done.stderr}")
    outputs = json.loads(done.stdout)
    outputs.update(_cli_outputs(env, workdir))
    return outputs


def _first_difference(a, b, where=""):
    if type(a) is not type(b):
        return f"{where}: {a!r} != {b!r}"
    if isinstance(a, dict):
        for key in a:
            if key not in b:
                return f"{where}/{key}: missing on one side"
            diff = _first_difference(a[key], b[key], f"{where}/{key}")
            if diff:
                return diff
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{where}: lengths {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = _first_difference(x, y, f"{where}[{i}]")
            if diff:
                return diff
        return None
    if a != b:
        if isinstance(a, str) and a.startswith(("0x", "-0x")):
            a, b = float.fromhex(a), float.fromhex(b)
        return f"{where}: {a!r} != {b!r}"
    return None


def main(argv: list[str]) -> int:
    if argv == ["--emit"]:
        json.dump(emit(), sys.stdout)
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as tmp:
        base = collect(Path(argv[0]).resolve(), Path(tmp))
        mine = collect(here, Path(tmp))
    if set(base) != set(mine):
        print(f"keys differ: {sorted(set(base) ^ set(mine))[:5]}")
        return 1
    diff = _first_difference(base, mine)
    if diff:
        print(f"first difference: {diff}")
        return 1
    print(f"identical: {len(base)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
