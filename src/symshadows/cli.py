"""Command-line surface: verification, fitting, sweeps, point clouds, estimation.

Subcommands
-----------
verify    Run a named self-check suite; exit 0 iff every check passes.
fit       Monte-Carlo fit of the measurement-channel coefficients as JSON.
sweep     Variance sweep over a (family, ratio, weight, instance) grid.
bloch     Bloch-sphere point cloud of V|0> for the d=2 ensembles.
estimate  One estimation job from matrix files.

Every command is deterministic given ``--seed``; numeric output uses the
shortest round-trip float representation, so re-runs are byte-identical.
Exit codes: 0 success, 1 failed checks, 2 usage or parse errors,
3 degenerate fit, 4 invalid state.

A ``--config FILE`` of flat ``key=value`` lines (keys are flag names,
hyphens or underscores both accepted) supplies defaults; explicit flags
override the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["build_parser", "entrypoint", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE_FIT = 3
EXIT_INVALID_STATE = 4

_BLOCH_SPACES = ("U", "SU2-AIII")


def _comma_list(kind):
    def convert(text: str):
        items = [item.strip() for item in text.split(",") if item.strip()]
        if not items:
            raise argparse.ArgumentTypeError("expected a comma-separated list")
        return tuple(kind(item) for item in items)

    return convert


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    parser.add_argument(
        "--config", type=Path, default=None, help="key=value file of flag defaults"
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="write results here instead of stdout"
    )


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out",
        choices=("csv", "json"),
        default="csv",
        help="tabular output format (default csv)",
    )


def build_parser() -> argparse.ArgumentParser:
    # No abbreviations: fit and estimate have --output but no --out, and a
    # prefix match would silently read a stray --out as --output.
    parser = argparse.ArgumentParser(
        prog="symshadows",
        allow_abbrev=False,
        description="Randomized measurements over symmetric ensembles: "
        "verification, channel fits, variance sweeps, and estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, allow_abbrev=False)

    p_verify = add_command("verify", "run a self-check suite")
    p_verify.add_argument(
        "--suite",
        default="all",
        help="haar|witness|channel|moments|equivariance|all (default all)",
    )
    p_verify.add_argument("--space", default=None, help="restrict checks to one family")
    p_verify.add_argument("--dim", type=int, default=None, help="override check dimension")
    p_verify.add_argument(
        "--samples", type=int, default=None, help="override Monte-Carlo sample budget"
    )
    p_verify.add_argument(
        "--tol-sem",
        type=float,
        default=5.0,
        help="statistical tolerance in standard errors (default 5)",
    )
    _add_out(p_verify)
    _add_common(p_verify)

    p_fit = add_command("fit", "fit channel coefficients from samples")
    p_fit.add_argument("--space", default=None, help="ensemble family, e.g. AI")
    p_fit.add_argument("--dim", type=int, default=None, help="matrix dimension")
    p_fit.add_argument("--p", type=int, default=None, help="first block size")
    p_fit.add_argument("--q", type=int, default=None, help="second block size")
    p_fit.add_argument("--samples", type=int, default=200_000, help="ensemble draws")
    _add_common(p_fit)

    p_sweep = add_command("sweep", "variance sweep over a configuration grid")
    p_sweep.add_argument("--dim", type=int, default=None, help="matrix dimension")
    p_sweep.add_argument(
        "--families",
        type=_comma_list(str),
        default=("AIII", "U", "BDI", "O"),
        help="comma-separated families (default AIII,U,BDI,O)",
    )
    p_sweep.add_argument(
        "--c",
        dest="fractions",
        type=_comma_list(float),
        default=(0.0,),
        help="comma-separated requested block-imbalance ratios s/d",
    )
    p_sweep.add_argument(
        "--weights",
        type=_comma_list(float),
        default=(1.0,),
        help="comma-separated diagonal weights of the observable ensemble",
    )
    p_sweep.add_argument("--instances", type=int, default=10, help="draws per grid cell")
    p_sweep.add_argument("--shots", type=int, default=1000, help="protocol rounds per row")
    p_sweep.add_argument(
        "--symmetric", action="store_true", help="restrict observables to real symmetric"
    )
    _add_out(p_sweep)
    _add_common(p_sweep)

    p_bloch = add_command("bloch", "Bloch point cloud of V|0> (d=2 only)")
    p_bloch.add_argument(
        "--space", choices=_BLOCH_SPACES, default="U", help="U or SU2-AIII"
    )
    p_bloch.add_argument("--samples", type=int, default=100_000, help="points to draw")
    _add_out(p_bloch)
    _add_common(p_bloch)

    p_est = add_command("estimate", "estimate tr(rho O) from matrix files")
    p_est.add_argument("--state", type=Path, default=None, help="density-matrix JSON file")
    p_est.add_argument(
        "--observable", type=Path, default=None, help="observable JSON file"
    )
    p_est.add_argument("--space", default=None, help="ensemble family, e.g. AI")
    p_est.add_argument("--dim", type=int, default=None, help="matrix dimension (default: from file)")
    p_est.add_argument("--p", type=int, default=None, help="first block size")
    p_est.add_argument("--q", type=int, default=None, help="second block size")
    p_est.add_argument("--shots", type=int, default=10_000, help="protocol rounds")
    _add_common(p_est)

    return parser


def _read_config(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _action_index(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """Map normalized flag names and dests to parser actions."""
    index: dict[str, argparse.Action] = {}
    for action in parser._actions:  # argparse has no public action listing
        index[action.dest] = action
        for option in action.option_strings:
            index[option.lstrip("-").replace("-", "_")] = action
    return index


def _apply_config(parsers, values: dict[str, str]) -> None:
    """Install config values as parser defaults; explicit flags still win."""
    remaining = dict(values)
    for parser in parsers:
        index = _action_index(parser)
        for key in list(remaining):
            action = index.get(key)
            if action is None:
                continue
            raw = remaining.pop(key)
            if isinstance(action, argparse._StoreTrueAction):
                parsed = raw.lower() in ("1", "true", "yes", "on")
            elif action.type is not None:
                parsed = action.type(raw)
            else:
                parsed = raw
            parser.set_defaults(**{action.dest: parsed})
    if remaining:
        unknown = ", ".join(sorted(remaining))
        raise ValueError(f"unknown config key(s): {unknown}")


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text, encoding="utf-8")


def _require(args, *names: str) -> None:
    """Reject commands whose mandatory values came from neither flag nor config."""
    missing = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(f"missing required value(s): {', '.join(missing)}")


def _cmd_verify(args) -> int:
    from .matio import records_to_csv, records_to_json
    from .verify import CHECK_COLUMNS, all_passed, run_suite

    try:
        checks = run_suite(
            args.suite,
            space=args.space,
            dim=args.dim,
            samples=args.samples,
            seed=args.seed,
            tol_sems=args.tol_sem,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    render = records_to_csv if args.out == "csv" else records_to_json
    _emit(render(checks, CHECK_COLUMNS), args.output)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(
            f"{status} {c.suite}/{c.name} statistic={c.statistic!r} "
            f"threshold={c.threshold!r}",
            file=sys.stderr,
        )
    failed = [c for c in checks if not c.passed]
    print(
        f"{len(checks) - len(failed)}/{len(checks)} checks passed",
        file=sys.stderr,
    )
    return EXIT_OK if all_passed(checks) else EXIT_CHECK_FAILED


def _make_spec(family: str, dim: int, p, q):
    from .spaces import make_space

    return make_space(family, dim, p=p, q=q)


def _cmd_fit(args) -> int:
    from .channel import channel_weights
    from .momentlab import FitDegenerateError, fit_channel_coefficients
    from .rng import RngStream

    _require(args, "space", "dim")
    spec = _make_spec(args.space, args.dim, args.p, args.q)
    try:
        fit = fit_channel_coefficients(spec, args.samples, RngStream(args.seed))
    except FitDegenerateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_FIT
    doc = {
        "space": spec.label(),
        "n_samples": fit.n_samples,
        "basis": list(fit.labels),
        "coefficients": list(fit.coefficients),
        "standard_errors": list(fit.standard_errors),
        "residual_norm": fit.residual_norm,
        "noise_floor": fit.noise_floor,
        "mixing_weight": fit.mixing_weight,
        "mixing_weight_sem": fit.mixing_weight_sem,
        "dephasing_weight": fit.dephasing_weight,
        "dephasing_weight_sem": fit.dephasing_weight_sem,
    }
    if not spec.is_group:
        weights = channel_weights(spec)
        doc["predicted_mixing_weight"] = float(weights.mixing_weight)
        doc["predicted_dephasing_weight"] = float(weights.dephasing_weight)
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from .matio import sweep_rows_to_csv, sweep_rows_to_json
    from .shadows import SweepConfig, variance_sweep

    _require(args, "dim")
    config = SweepConfig(
        dim=args.dim,
        families=tuple(args.families),
        signature_fractions=tuple(args.fractions),
        diag_weights=tuple(args.weights),
        n_instances=args.instances,
        n_shots=args.shots,
        seed=args.seed,
        symmetric_observables=args.symmetric,
    )
    rows = variance_sweep(config)
    render = sweep_rows_to_csv if args.out == "csv" else sweep_rows_to_json
    _emit(render(rows), args.output)
    print(f"{len(rows)} rows", file=sys.stderr)
    return EXIT_OK


def _cmd_bloch(args) -> int:
    import numpy as np

    from .matio import records_to_csv, records_to_json
    from .rng import RngStream
    from .spaces import make_space, sample_point

    if args.space == "U":
        spec = make_space("U", 2)
    else:
        spec = make_space("AIII", 2, p=1, q=1)
    v = sample_point(spec, RngStream(args.seed), size=args.samples)
    a = v[:, 0, 0]
    b = v[:, 1, 0]
    cross = a.conj() * b
    records = [
        {"x": float(x), "y": float(y), "z": float(z)}
        for x, y, z in zip(
            2.0 * cross.real, 2.0 * cross.imag, (np.abs(a) ** 2 - np.abs(b) ** 2)
        )
    ]
    render = records_to_csv if args.out == "csv" else records_to_json
    _emit(render(records, ("x", "y", "z")), args.output)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    from .matio import load_density, load_matrix
    from .rng import RngStream
    from .shadows import run_estimation

    _require(args, "state", "observable", "space")
    rho = load_density(args.state)
    observable = load_matrix(args.observable)
    dim = args.dim if args.dim is not None else rho.shape[0]
    spec = _make_spec(args.space, dim, args.p, args.q)
    report = run_estimation(spec, rho, observable, args.shots, rng=RngStream(args.seed))
    doc = {
        "space": spec.label(),
        "mean": report.mean,
        "variance": report.variance,
        "sem": report.sem,
        "n_samples": report.n_samples,
        "truth": report.truth,
        "projected": report.projected,
    }
    if report.projected:
        print(
            "warning: observable has a component outside the channel image; "
            "the estimate targets its projection",
            file=sys.stderr,
        )
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return EXIT_OK


_COMMANDS = {
    "verify": _cmd_verify,
    "fit": _cmd_fit,
    "sweep": _cmd_sweep,
    "bloch": _cmd_bloch,
    "estimate": _cmd_estimate,
}


def main(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # Pre-scan for --config so its values become defaults before parsing.
    config_path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            config_path = Path(argv[i + 1])
        elif token.startswith("--config="):
            config_path = Path(token.split("=", 1)[1])
    if config_path is not None:
        try:
            values = _read_config(config_path)
            subparsers = next(
                a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            )
            command = next((t for t in argv if t in subparsers.choices), None)
            targets = [parser] + ([subparsers.choices[command]] if command else [])
            _apply_config(targets, values)
        except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    args = parser.parse_args(argv)
    from .shadows import InvalidStateError

    try:
        return _COMMANDS[args.command](args)
    except InvalidStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_STATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
