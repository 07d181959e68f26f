"""Lossless matrix files and the tabular output formats."""

import json

import numpy as np
import pytest

from symshadows.matio import (
    load_density,
    load_matrix,
    matrix_from_document,
    matrix_to_document,
    records_to_csv,
    records_to_json,
    save_matrix,
    sweep_rows_to_csv,
    sweep_rows_to_json,
)
from symshadows.rng import RngStream
from symshadows.shadows import (
    SWEEP_COLUMNS,
    InvalidStateError,
    SweepConfig,
    random_pure_state,
    variance_sweep,
)

AWKWARD = np.array(
    [
        [0.1 + 0.2j, 1e-17 - 3j],
        [np.pi, -0.0 + 1e300j],
    ]
)


def test_matrix_document_roundtrip_is_lossless():
    doc = matrix_to_document(AWKWARD)
    assert doc["dim"] == 2
    back = matrix_from_document(doc)
    np.testing.assert_array_equal(back, AWKWARD)
    # through actual JSON text too
    back2 = matrix_from_document(json.loads(json.dumps(doc)))
    np.testing.assert_array_equal(back2, AWKWARD)


def test_matrix_document_real_matrices_omit_imag_gracefully():
    m = matrix_from_document({"dim": 2, "re": [[1.0, 2.0], [3.0, 4.0]]})
    np.testing.assert_array_equal(m, np.array([[1, 2], [3, 4]], dtype=complex))


def test_matrix_document_rejects_malformed_input():
    with pytest.raises(ValueError):
        matrix_to_document(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        matrix_from_document(["not", "a", "mapping"])
    with pytest.raises(ValueError):
        matrix_from_document({"re": [[1.0]]})  # no dim
    with pytest.raises(ValueError):
        matrix_from_document({"dim": 0, "re": []})
    with pytest.raises(ValueError):
        matrix_from_document({"dim": 2, "im": [[0, 0], [0, 0]]})  # no re
    with pytest.raises(ValueError):
        matrix_from_document({"dim": 2, "re": [[1.0, 2.0]]})  # wrong shape
    with pytest.raises(ValueError):
        matrix_from_document({"dim": 2, "re": [[1.0, "x"], [0.0, 0.0]]})


@pytest.mark.parametrize("dim", [2.7, True, "2", None, float("nan")])
def test_matrix_document_rejects_non_integer_dim(dim):
    with pytest.raises(ValueError, match="'dim' must be an integer, got"):
        matrix_from_document({"dim": dim, "re": [[1.0, 0.0], [0.0, 1.0]]})


def test_matrix_document_accepts_an_integral_float_dim():
    m = matrix_from_document({"dim": 2.0, "re": [[1.0, 0.0], [0.0, 1.0]]})
    np.testing.assert_array_equal(m, np.eye(2))


def test_save_and_load_matrix(tmp_path):
    path = tmp_path / "m.json"
    save_matrix(path, AWKWARD)
    assert path.read_text().endswith("\n")
    np.testing.assert_array_equal(load_matrix(path), AWKWARD)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_save_matrix_refuses_non_finite_entries_and_writes_nothing(tmp_path, bad):
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match="non-finite"):
        save_matrix(path, np.diag([bad, 1.0]))
    assert not path.exists()
    with pytest.raises(ValueError, match="non-finite"):
        matrix_to_document(np.diag([bad, 1.0]))


def test_load_matrix_rejects_broken_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_matrix(path)


def test_load_density_validates(tmp_path):
    good = tmp_path / "rho.json"
    save_matrix(good, random_pure_state(3, RngStream(90)))
    rho = load_density(good)
    assert np.trace(rho) == pytest.approx(1.0)
    bad = tmp_path / "notstate.json"
    save_matrix(bad, np.eye(3))  # trace 3
    with pytest.raises(InvalidStateError):
        load_density(bad)


# ------------------------------------------------------------------ tables


def test_records_to_csv_formats_cells():
    rows = [
        {"a": 1, "b": None, "c": 0.1, "d": True, "e": "x"},
        {"a": np.int64(2), "b": np.float64(0.25), "c": None, "d": False},
    ]
    text = records_to_csv(rows, ("a", "b", "c", "d", "e"))
    lines = text.splitlines()
    assert lines[0] == "a,b,c,d,e"
    assert lines[1] == "1,,0.1,true,x"
    assert lines[2] == "2,0.25,,false,"
    assert text.endswith("\n")


def test_records_to_csv_float_cells_roundtrip():
    value = 0.1 + 0.2  # 0.30000000000000004
    text = records_to_csv([{"x": value}], ("x",))
    cell = text.splitlines()[1]
    assert float(cell) == value


def test_records_to_csv_rejects_unknown_record_type():
    with pytest.raises(TypeError):
        records_to_csv([object()], ("a",))


def test_records_to_json_mirrors_csv_schema(tmp_path):
    rows = [{"a": np.int64(1), "b": np.float64(2.5), "c": None}]
    path = tmp_path / "rows.json"
    text = records_to_json(rows, ("a", "b", "c"), path)
    assert path.read_text() == text
    parsed = json.loads(text)
    assert parsed == [{"a": 1, "b": 2.5, "c": None}]


def test_sweep_serialization_header_and_none_cells(tmp_path):
    config = SweepConfig(
        dim=2,
        families=("U",),
        signature_fractions=(0.0,),
        n_instances=1,
        n_shots=20,
        seed=5,
    )
    rows = variance_sweep(config)
    text = sweep_rows_to_csv(rows, tmp_path / "sweep.csv")
    lines = text.splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert lines[0] == (
        "family,d,p,q,s,c_requested,c_actual,diag_weight,instance,n_shots,"
        "empirical_variance,analytic_second_moment,mean,sem,seed"
    )
    # group families leave the block columns empty
    cells = lines[1].split(",")
    assert cells[0] == "U"
    assert cells[2] == cells[3] == cells[4] == ""  # p, q, s
    assert cells[6] == ""  # c_actual
    assert cells[11] == ""  # analytic second moment
    assert (tmp_path / "sweep.csv").read_text() == text

    as_json = json.loads(sweep_rows_to_json(rows))
    assert list(as_json[0].keys()) == list(SWEEP_COLUMNS)
    assert as_json[0]["p"] is None
    # CSV float cells parse back to the exact JSON values
    assert float(cells[10]) == as_json[0]["empirical_variance"]
