"""Check that seeded outputs are bit-identical to those of another checkout.

Usage::

    python tools/seeded_parity.py BASE_DIR

``BASE_DIR`` holds the tree to compare with, for example the parent commit
unpacked with ``git archive``.  Each tree runs in a fresh interpreter with
its own ``src`` on the path and reports, for the same seeds:

* ``shadow_estimates`` for every family at d = 2, 3, 8 and 32 (and a second
  block split for AIII, BDI and CII), on a pure and on a full-rank state,
  in one default batch and in batches whose last one is short;
* ``run_estimation`` reports and ``sample_outcome`` records; and at the
  benchmark's d = 128 cells, AIII(128, 64, 64) and BDI(128, 80, 48), on a
  pure, a rank-2 and a full-rank state, and on one that only the
  eigenvalue check accepts (least eigenvalue -0.8·``DENSITY_TOL``);
* deferred draws used on their own: ``apply``, ``apply_adjoint`` and
  ``matrix()`` of ``sample_point(..., dense=False)``, ``project`` of the
  Haar samplers' ``columns=`` draws, and ``entry_moments``;
* deferred completions at d = 32: ``matrix()`` of 64 draws of
  ``sample_point(..., dense=False)`` for U, DIII, CI, BDI(32, 16, 16) and
  CII(32, 8, 8), whose frames outgrow a measured round's;
* dense draws: ``sample_point`` and ``sample_subgroup`` for every family
  (and the second block splits) at d = 8, 23, 24, 32 and 64;
* ``fit_channel_coefficients`` for one family per parent group (AI, DIII,
  CI) at d = 8 and 24;
* ``variance_sweep`` rows;
* ``invert_channel(spec).split`` (``inverse``, ``null`` and ``projected``)
  of a complex, a real-symmetric and a diagonal observable, for every family
  at d = 1, 2, 3, 8, 32 and 128 with its default blocks and, where it takes
  blocks, p = 0 (one empty block) and p = 1; at d = 128 the two arrays are
  compared by the SHA-256 digest of their bytes;
* the stdout of the ``estimate`` and ``sweep`` commands.

Floats are compared bit for bit.  The script prints every output that
differs, with the largest absolute difference of its floats (real and
imaginary parts apart), and exits with status 1; or it prints a summary and
exits with status 0.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DIMS = (2, 3, 8, 32)
DENSE_DIMS = (8, 23, 24, 32, 64)
FIT_FAMILIES = ("AI", "DIII", "CI")
EVEN_ONLY = {"SP", "AII", "DIII", "CI", "CII"}
COMPLETIONS = (("U", None, None), ("DIII", None, None), ("CI", None, None), ("BDI", 16, 16),
               ("CII", 8, 8))
SPLIT_DIMS = (1, 2, 3, 8, 32, 128)
LARGE_CELLS = (("AIII", 128, 64), ("BDI", 128, 80))


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


def _specs(dims=DIMS):
    from symshadows.spaces import ALL_FAMILIES, make_space

    for d in dims:
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
    out.update(_large_cells())
    out.update(_completions())
    out.update(_dense())
    out.update(_splits())
    return _encode(out)


def _large_states(d: int, seed: int) -> dict:
    """Pure, rank-2 and full-rank states, and one just past the factor's
    positivity certificate: a pure state on the first d - 1 coordinates
    with -0.8·DENSITY_TOL on the last."""
    import numpy as np

    from symshadows.shadows import DENSITY_TOL

    gen = np.random.default_rng(seed)
    states = {}
    for kind, rank in (("pure", 1), ("rank-2", 2), ("full", d)):
        g = gen.standard_normal((d, rank)) + 1j * gen.standard_normal((d, rank))
        rho = g @ g.conj().T
        states[kind] = rho / np.trace(rho).real
    eigmin = -0.8 * DENSITY_TOL
    psi = np.zeros(d, dtype=complex)
    psi[:-1] = gen.standard_normal(d - 1) + 1j * gen.standard_normal(d - 1)
    psi *= np.sqrt(1.0 - eigmin) / np.linalg.norm(psi)
    edge = np.outer(psi, psi.conj())
    edge[-1, -1] = eigmin
    states["eigenvalue-checked"] = edge
    return states


def _large_cells() -> dict:
    """``run_estimation`` reports and ``sample_outcome`` records at d = 128."""
    from symshadows import shadows
    from symshadows.rng import RngStream
    from symshadows.spaces import make_space

    out = {}
    for i, (family, d, p) in enumerate(LARGE_CELLS):
        spec = make_space(family, d, p=p)
        obs = shadows.random_observable(d, 0.25, symmetric=spec.is_real, rng=RngStream(i, (12,)))
        for j, (kind, rho) in enumerate(_large_states(d, 20 + i).items()):
            key = f"{spec.label()} {kind}"
            report = shadows.run_estimation(spec, rho, obs, 64, rng=RngStream(i, (13, j)))
            out[f"run_estimation {key}"] = [
                report.mean, report.variance, report.sem, report.truth, report.projected
            ]
            gen = RngStream(i, (14, j)).generator()
            records = [shadows.sample_outcome(spec, rho, gen) for _ in range(2)]
            out[f"sample_outcome {key}"] = [[r.row, r.outcome] for r in records]
    return out


def _completions() -> dict:
    """Deferred draws at d = 32 completed to dense matrices."""
    from symshadows.rng import RngStream
    from symshadows.spaces import make_space, sample_point

    out = {}
    for i, (family, p, q) in enumerate(COMPLETIONS):
        spec = make_space(family, 32, p=p, q=q)
        draw = sample_point(spec, RngStream(i, (11,)), 64, dense=False)
        out[f"completion {spec.label()}"] = draw.matrix()
    return out


def _block_splits(d: int):
    """Every family at ``d``: its default blocks and, where it takes blocks, p = 0 and p = 1."""
    from symshadows.spaces import ALL_FAMILIES, _block_total, make_space

    for family in ALL_FAMILIES:
        total = _block_total(family, d)
        blocks = [(None, None)] + [(p, total - p) for p in (0, 1) if total is not None]
        specs = []
        for p, q in blocks:
            try:
                spec = make_space(family, d, p, q)
            except ValueError:  # no such space at this d
                continue
            if spec not in specs:
                specs.append(spec)
        yield from specs


def _splits() -> dict:
    """Sector splits of a complex, a real-symmetric and a diagonal observable."""
    import hashlib

    import numpy as np

    from symshadows.channel import invert_channel
    from symshadows.shadows import random_observable

    out = {}
    for d in SPLIT_DIMS:
        gen = np.random.default_rng(d)
        c = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        observables = {"complex": c, "real-symmetric": c.real + c.real.T}
        if d > 1:
            observables["diagonal"] = random_observable(d, 1.0, rng=gen)
        for spec in _block_splits(d):
            for kind, obs in observables.items():
                split = invert_channel(spec).split(obs)
                arrays = [split.inverse, split.null]
                if d == 128:
                    arrays = [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]
                out[f"split {spec.label()} {kind}"] = arrays + [split.projected]
    return out


def _dense() -> dict:
    """Dense draws and the fits made from them."""
    from symshadows.momentlab import fit_channel_coefficients
    from symshadows.rng import RngStream
    from symshadows.spaces import make_space, sample_point, sample_subgroup

    out = {}
    for i, spec in enumerate(_specs(DENSE_DIMS)):
        size = 2 if spec.dim == 64 else 4
        out[f"dense sample_point {spec.label()}"] = sample_point(spec, RngStream(i, (8,)), size)
        out[f"dense sample_subgroup {spec.label()}"] = sample_subgroup(
            spec, RngStream(i, (9,)), size
        )
    for d in (8, 24):
        for family in FIT_FAMILIES:
            fit = fit_channel_coefficients(make_space(family, d), 256, RngStream(d, (10,)))
            out[f"fit {family}({d})"] = [
                fit.coefficients, fit.standard_errors, fit.residual_norm,
                fit.mixing_weight, fit.mixing_weight_sem,
                fit.dephasing_weight, fit.dephasing_weight_sem,
            ]
    return out


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


def _pairs(a, b, where=""):
    """The leaves of two encoded outputs side by side; ``ValueError`` where their shapes differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise ValueError(f"{where}: keys {sorted(a)} != {sorted(b)}")
        for key in a:
            yield from _pairs(a[key], b[key], f"{where}/{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise ValueError(f"{where}: lengths {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _pairs(x, y, f"{where}[{i}]")
    else:
        yield where, a, b


def _as_float(value):
    """The float an encoded leaf holds (``float.hex`` form), or None for any other leaf."""
    if isinstance(value, str) and value.lstrip("-").startswith(("0x", "inf", "nan")):
        return float.fromhex(value)
    return None


def _difference(a, b) -> str:
    """How two encoded outputs differ: the largest absolute difference of
    their floats, or the first other leaf that differs."""
    largest = 0.0
    try:
        for where, x, y in _pairs(a, b):
            if x == y:
                continue
            fx, fy = _as_float(x), _as_float(y)
            if fx is None or fy is None or math.isnan(fx) or math.isnan(fy):
                return f"{where}: {str(x)[:60]!r} != {str(y)[:60]!r}"
            largest = max(largest, abs(fx - fy))
    except ValueError as err:
        return f"shapes differ at {err}"
    return f"largest absolute difference {largest:.3g}"


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
    missing = sorted(set(base) ^ set(mine))
    for key in missing:
        print(f"on one side only: {key}")
    differing = [key for key in base if key in mine and base[key] != mine[key]]
    for key in differing:
        print(f"differs: {key}: {_difference(base[key], mine[key])}")
    if missing or differing:
        print(f"{len(differing)} of {len(base)} outputs differ, {len(missing)} on one side only")
        return 1
    print(f"identical: {len(base)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
