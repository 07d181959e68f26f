"""Command-line interface: exit codes, output formats, config files."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symshadows
from symshadows import momentlab
from symshadows.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DEGENERATE_FIT,
    EXIT_INVALID_STATE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from symshadows.matio import save_matrix
from symshadows.rng import RngStream
from symshadows.shadows import random_observable, random_pure_state


@pytest.fixture
def matrix_files(tmp_path):
    rho_path = tmp_path / "rho.json"
    obs_path = tmp_path / "obs.json"
    save_matrix(rho_path, random_pure_state(4, RngStream(1)))
    save_matrix(obs_path, random_observable(4, 0.5, rng=RngStream(2)))
    return rho_path, obs_path


def test_exit_codes_are_distinct():
    codes = [
        EXIT_OK,
        EXIT_CHECK_FAILED,
        EXIT_USAGE,
        EXIT_DEGENERATE_FIT,
        EXIT_INVALID_STATE,
    ]
    assert codes == [0, 1, 2, 3, 4]


# ------------------------------------------------------------------- verify


def test_verify_passes_and_reports(capsys):
    code = main(["verify", "--suite", "haar", "--samples", "3000"])
    out, err = capsys.readouterr()
    assert code == EXIT_OK
    assert out.splitlines()[0] == "suite,name,statistic,threshold,passed"
    assert "checks passed" in err
    assert "FAIL" not in err


def test_verify_json_output_parses(capsys):
    code = main(["verify", "--suite", "haar", "--samples", "3000", "--out", "json"])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    checks = json.loads(out)
    assert checks and all(c["passed"] for c in checks)
    assert list(checks[0].keys()) == ["suite", "name", "statistic", "threshold", "passed"]


def test_verify_fails_with_impossible_tolerance(capsys):
    code = main(
        ["verify", "--suite", "moments", "--samples", "600", "--tol-sem", "1e-6"]
    )
    _, err = capsys.readouterr()
    assert code == EXIT_CHECK_FAILED
    assert "FAIL" in err


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_verify_rejects_tolerances_that_switch_checks_off(tol, capsys):
    code = main(["verify", "--suite", "haar", "--samples", "1000", "--tol-sem", tol])
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert out == "" and "tol_sems" in err and "Traceback" not in err


def test_verify_rejects_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == EXIT_USAGE


def test_verify_writes_output_file(tmp_path, capsys):
    target = tmp_path / "checks.csv"
    code = main(
        [
            "verify",
            "--suite",
            "haar",
            "--samples",
            "2000",
            "--output",
            str(target),
        ]
    )
    out, err = capsys.readouterr()
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text().startswith("suite,name,")
    assert "checks passed" in err


# --------------------------------------------------------------------- fit


def test_fit_reports_weights(capsys):
    code = main(
        ["fit", "--space", "AI", "--dim", "3", "--samples", "20000", "--seed", "3"]
    )
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["space"] == "AI(d=3)"
    assert doc["predicted_mixing_weight"] == pytest.approx(1 / 9)
    assert abs(doc["mixing_weight"] - 1 / 9) <= 5 * doc["mixing_weight_sem"]
    assert len(doc["basis"]) == len(doc["coefficients"])


def test_fit_requires_space_and_dim(capsys):
    assert main(["fit", "--dim", "3"]) == EXIT_USAGE
    assert main(["fit", "--space", "AI"]) == EXIT_USAGE
    _, err = capsys.readouterr()
    assert "missing required value" in err


def test_fit_degenerate_basis_exit_code(capsys):
    code = main(
        ["fit", "--space", "BDI", "--dim", "2", "--p", "1", "--samples", "100"]
    )
    _, err = capsys.readouterr()
    assert code == EXIT_DEGENERATE_FIT
    assert "collinear" in err


def test_fit_rejects_unknown_family(capsys):
    assert main(["fit", "--space", "E8", "--dim", "3"]) == EXIT_USAGE


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_fit_rejects_too_few_samples(samples, capsys):
    code = main(["fit", "--space", "AI", "--dim", "4", "--samples", samples])
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert out == ""
    assert "at least 2 samples" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "moments", "--space", "U", "--samples", "1"],
        ["verify", "--suite", "witness", "--space", "AI", "--dim", "0"],
    ],
)
def test_verify_rejects_sample_counts_and_dimensions_it_cannot_use(argv, capsys):
    assert main(argv) == EXIT_USAGE
    out, _ = capsys.readouterr()
    assert out == ""


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_verify_passes_on_a_single_point_ensemble(seed, capsys):
    argv = ["verify", "--suite", "equivariance", "--space", "CII", "--dim", "2",
            "--samples", "100", "--seed", seed]
    assert main(argv) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("space", ["CI", "CII", "DIII"])
def test_verify_maps_a_degenerate_fit_to_exit_3(space, capsys):
    argv = ["verify", "--suite", "channel", "--space", space, "--dim", "2", "--samples", "2000"]
    assert main(argv) == EXIT_DEGENERATE_FIT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--space", "U", "--dim", "64", "--samples", "2000"],
        ["verify", "--suite", "moments", "--dim", "64"],
    ],
)
def test_study_commands_refuse_sizes_they_cannot_hold_before_drawing(
    argv, monkeypatch, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("drew before refusing the size")

    monkeypatch.setattr(momentlab, "sample_point", refuse)
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert re.search(r"need \d+ bytes .*the limit is \d+ bytes", err)


# ------------------------------------------------------------------- sweep


def _run_sweep(tmp_path, name, extra):
    target = tmp_path / name
    argv = ["sweep", "--output", str(target)] + extra
    assert main(argv) == EXIT_OK
    return target.read_bytes()


def test_sweep_reruns_are_byte_identical(tmp_path, capsys):
    args = [
        "--dim",
        "2",
        "--families",
        "AIII,U",
        "--instances",
        "2",
        "--shots",
        "60",
        "--seed",
        "11",
    ]
    first = _run_sweep(tmp_path, "a.csv", args)
    second = _run_sweep(tmp_path, "b.csv", args)
    assert first == second
    header = first.decode().splitlines()[0]
    assert header.startswith("family,d,p,q,s,c_requested,c_actual")


def test_sweep_config_file_matches_flags(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "# sweep settings\n"
        "dim = 2\n"
        "families = AIII,U\n"
        "c = 0.0\n"
        "instances = 2\n"
        "shots = 60\n"
        "seed = 11\n"
    )
    by_flags = _run_sweep(
        tmp_path,
        "flags.csv",
        ["--dim", "2", "--families", "AIII,U", "--c", "0.0",
         "--instances", "2", "--shots", "60", "--seed", "11"],
    )
    by_config = _run_sweep(tmp_path, "config.csv", ["--config", str(config)])
    assert by_flags == by_config
    # explicit flags override config values
    by_override = _run_sweep(
        tmp_path,
        "override.csv",
        ["--config", str(config), "--seed", "12"],
    )
    assert by_override != by_config
    reference = _run_sweep(
        tmp_path,
        "reference.csv",
        ["--dim", "2", "--families", "AIII,U", "--c", "0.0",
         "--instances", "2", "--shots", "60", "--seed", "12"],
    )
    assert by_override == reference
    # A store_true key, a key with no type, and the --config=FILE spelling.
    config.write_text(config.read_text() + "symmetric = yes\nout = json\n")
    by_flags = _run_sweep(
        tmp_path,
        "flags.json",
        ["--dim", "2", "--families", "AIII,U", "--c", "0.0", "--instances", "2",
         "--shots", "60", "--seed", "11", "--symmetric", "--out", "json"],
    )
    assert by_flags.startswith(b"[") and by_flags != by_config
    assert _run_sweep(tmp_path, "config.json", [f"--config={config}"]) == by_flags


def test_sweep_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("dim = 2\nnonsense = 5\n")
    code = main(["sweep", "--config", str(config)])
    _, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "nonsense" in err


def test_sweep_requires_dim(capsys):
    assert main(["sweep"]) == EXIT_USAGE


def test_sweep_rejects_unknown_family_before_output(capsys):
    code = main(["sweep", "--dim", "4", "--families", "U,NOPE"])
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert out == ""
    assert "NOPE" in err


def test_sweep_rejects_a_non_finite_fraction(capsys):
    code = main(["sweep", "--dim", "4", "--families", "AIII", "--c", "nan", "--shots", "20"])
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert out == "" and "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--space", "AI", "--dim", "3", "--tol-sem", "3"],
        ["fit", "--space", "AI", "--dim", "3", "--out", "json"],
        ["estimate", "--space", "AI", "--out", "csv"],
        ["sweep", "--dim", "2", "--tol-sem", "3"],
    ],
    ids=["fit-tol-sem", "fit-out", "estimate-out", "sweep-tol-sem"],
)
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key", [("sweep", "threads"), ("fit", "tol_sem"), ("bloch", "tol-sem")]
)
def test_config_keys_a_command_does_not_read_are_rejected(tmp_path, capsys, command, key):
    config = tmp_path / "bad.cfg"
    config.write_text(f"{key} = 2\n")
    code = main([command, "--config", str(config)])
    _, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "unknown config key" in err


def test_sweep_json_output(capsys):
    code = main(
        [
            "sweep",
            "--dim",
            "2",
            "--families",
            "U",
            "--instances",
            "1",
            "--shots",
            "30",
            "--out",
            "json",
        ]
    )
    out, err = capsys.readouterr()
    assert code == EXIT_OK
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["family"] == "U"
    assert rows[0]["p"] is None
    assert "1 rows" in err


# ------------------------------------------------------------------- bloch


@pytest.mark.parametrize("space", ["U", "SU2-AIII"])
def test_bloch_points_lie_on_the_sphere(space, capsys):
    code = main(
        ["bloch", "--space", space, "--samples", "200", "--out", "json", "--seed", "5"]
    )
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    points = json.loads(out)
    assert len(points) == 200
    radii = [p["x"] ** 2 + p["y"] ** 2 + p["z"] ** 2 for p in points]
    np.testing.assert_allclose(radii, 1.0, atol=1e-12)


def test_bloch_rejects_other_spaces(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bloch", "--space", "O"])
    assert exc.value.code == EXIT_USAGE


# ---------------------------------------------------------------- estimate


def test_estimate_reports_unbiased_value(matrix_files, capsys):
    rho_path, obs_path = matrix_files
    code = main(
        [
            "estimate",
            "--state",
            str(rho_path),
            "--observable",
            str(obs_path),
            "--space",
            "U",
            "--shots",
            "20000",
            "--seed",
            "7",
        ]
    )
    out, err = capsys.readouterr()
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["space"] == "U(d=4)"
    assert not doc["projected"]
    assert abs(doc["mean"] - doc["truth"]) <= 5 * doc["sem"]
    assert "warning" not in err


def test_estimate_symmetric_unitary_family(matrix_files, capsys):
    rho_path, obs_path = matrix_files
    code = main(
        [
            "estimate",
            "--state",
            str(rho_path),
            "--observable",
            str(obs_path),
            "--space",
            "AI",
            "--shots",
            "20000",
            "--seed",
            "9",
        ]
    )
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["space"] == "AI(d=4)"
    assert abs(doc["mean"] - doc["truth"]) <= 5 * doc["sem"]


def test_estimate_warns_when_projecting(matrix_files, capsys):
    rho_path, obs_path = matrix_files
    code = main(
        [
            "estimate",
            "--state",
            str(rho_path),
            "--observable",
            str(obs_path),
            "--space",
            "BDI",
            "--p",
            "2",
            "--shots",
            "50",
        ]
    )
    out, err = capsys.readouterr()
    assert code == EXIT_OK
    assert json.loads(out)["projected"]
    assert "warning" in err


def test_estimate_rejects_invalid_state(tmp_path, matrix_files, capsys):
    _, obs_path = matrix_files
    bad = tmp_path / "anti.json"
    save_matrix(bad, np.eye(4) * 2)  # trace 8: not a state
    code = main(
        [
            "estimate",
            "--state",
            str(bad),
            "--observable",
            str(obs_path),
            "--space",
            "U",
        ]
    )
    _, err = capsys.readouterr()
    assert code == EXIT_INVALID_STATE
    assert "trace" in err


def test_estimate_rejects_non_finite_inputs(tmp_path, matrix_files, capsys):
    rho_path, obs_path = matrix_files
    # save_matrix refuses non-finite entries, so the files are written as
    # text: the bare NaN token that Python's json module reads back.
    nan_state = tmp_path / "nan_state.json"
    nan_state.write_text(
        '{"dim": 4, "re": [[NaN, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]}\n'
    )
    nan_obs = tmp_path / "nan_obs.json"
    nan_obs.write_text(
        '{"dim": 4, "re": [[NaN, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, -1.0, 0], [0, 0, 0, 0]]}\n'
    )
    for state, obs, expected in ((nan_state, obs_path, EXIT_INVALID_STATE),
                                 (rho_path, nan_obs, EXIT_USAGE)):
        argv = ["estimate", "--state", str(state), "--observable", str(obs),
                "--space", "U", "--shots", "100"]
        assert main(argv) == expected
        out, err = capsys.readouterr()
        assert out == "" and "non-finite" in err and "Traceback" not in err


def test_estimate_rejects_a_single_shot(matrix_files, capsys):
    rho_path, obs_path = matrix_files
    argv = ["estimate", "--state", str(rho_path), "--observable", str(obs_path),
            "--space", "U", "--shots", "1"]
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "n_shots >= 2" in err


def test_estimate_rejects_malformed_file(tmp_path, matrix_files, capsys):
    rho_path, _ = matrix_files
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code = main(
        [
            "estimate",
            "--state",
            str(rho_path),
            "--observable",
            str(broken),
            "--space",
            "U",
        ]
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("dim", ["4.5", "true", '"4"'])
def test_estimate_rejects_a_non_integer_dim(tmp_path, matrix_files, capsys, dim):
    rho_path, obs_path = matrix_files
    doc = json.loads(obs_path.read_text())
    bad = tmp_path / "bad_dim.json"
    bad.write_text(json.dumps(doc).replace('"dim": 4', f'"dim": {dim}'))
    for state, obs in ((bad, obs_path), (rho_path, bad)):
        argv = ["estimate", "--state", str(state), "--observable", str(obs),
                "--space", "U", "--shots", "10"]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "'dim' must be an integer" in err and "Traceback" not in err


# --------------------------------------------------------------- packaging


def test_module_entry_point_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "symshadows.cli", "verify", "--suite", "haar",
         "--samples", "2000"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("suite,name,")


def _assert_help_lists_subcommands(result):
    assert result.returncode == 0
    assert result.stdout.startswith("usage: symshadows")
    for sub in ("verify", "fit", "sweep", "bloch", "estimate"):
        assert sub in result.stdout


def test_console_script_smoke():
    """Run the declared ``[project.scripts]`` target as pip's wrapper would."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["symshadows"]
    module, attr = target.split(":")
    wrapper = (
        f"import sys; from {module} import {attr}; "
        f'sys.argv[0] = "symshadows"; sys.exit({attr}())'
    )
    # Run the same package the suite imported, installed or not.
    env = dict(os.environ)
    package_root = str(Path(symshadows.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    script = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    _assert_help_lists_subcommands(script)


def test_distribution_is_named_after_the_package():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["name"] == "symshadows"
    assert "symshadows" in project["scripts"]


@pytest.mark.skipif(
    shutil.which("symshadows") is None,
    reason="no installed symshadows executable on PATH",
)
def test_installed_console_script_smoke():
    script = subprocess.run(
        [shutil.which("symshadows"), "--help"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    _assert_help_lists_subcommands(script)
