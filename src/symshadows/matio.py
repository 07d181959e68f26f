"""File formats: matrix JSON documents and tabular result output.

Matrices travel as JSON objects ``{"dim": n, "re": [[...]], "im": [[...]]}``
with full float precision (Python's shortest round-trip representation), so
a save/load cycle is lossless.  Sweep rows and verification checks are
written as CSV with a fixed header or as a JSON array of objects; float
cells likewise use the shortest round-trip representation.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .haar import _integer
from .shadows import SWEEP_COLUMNS, validate_density

__all__ = [
    "load_density",
    "load_matrix",
    "matrix_to_document",
    "matrix_from_document",
    "records_to_csv",
    "records_to_json",
    "save_matrix",
    "sweep_rows_to_csv",
    "sweep_rows_to_json",
]


def matrix_to_document(matrix: np.ndarray) -> dict[str, Any]:
    """Encode a square, finite matrix as a JSON-ready ``{dim, re, im}`` mapping."""
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"only square matrices are supported, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries, which JSON cannot represent")
    return {
        "dim": int(arr.shape[0]),
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def matrix_from_document(doc: Mapping[str, Any]) -> np.ndarray:
    """Decode a ``{dim, re, im}`` mapping into a complex matrix.

    The imaginary part may be omitted for real matrices.  Raises
    ``ValueError`` on missing fields or ragged/ill-sized arrays.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("matrix document must be a JSON object")
    dim = _integer(doc.get("dim"), "matrix field 'dim'")
    if dim < 1:
        raise ValueError(f"matrix dimension must be positive, got {dim}")
    if "re" not in doc:
        raise ValueError("matrix document needs a 're' field")
    parts = []
    for key in ("re", "im"):
        if key == "im" and key not in doc:
            parts.append(np.zeros((dim, dim)))
            continue
        try:
            block = np.asarray(doc[key], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"matrix field {key!r} is not a rectangular float array") from exc
        if block.shape != (dim, dim):
            raise ValueError(
                f"matrix field {key!r} has shape {block.shape}, expected ({dim}, {dim})"
            )
        parts.append(block)
    return parts[0] + 1j * parts[1]


def save_matrix(path: str | Path, matrix: np.ndarray) -> None:
    """Write a matrix to ``path`` in the JSON matrix format."""
    doc = matrix_to_document(matrix)
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load_matrix(path: str | Path) -> np.ndarray:
    """Read a matrix from a JSON matrix file; malformed input raises ValueError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return matrix_from_document(doc)


def load_density(path: str | Path) -> np.ndarray:
    """Read a matrix file and validate it as a density matrix.

    Raises ``ValueError`` for malformed files and
    :class:`symshadows.shadows.InvalidStateError` for well-formed matrices
    that are not states.
    """
    return validate_density(load_matrix(path))


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    # np.float64 subclasses float, so coerce before repr
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def _record_mapping(record: Any) -> Mapping[str, Any]:
    if is_dataclass(record) and not isinstance(record, type):
        return asdict(record)
    if isinstance(record, Mapping):
        return record
    raise TypeError(f"cannot serialize record of type {type(record).__name__}")


def records_to_csv(
    records: Iterable[Any], columns: Sequence[str], path: str | Path | None = None
) -> str:
    """Render records as CSV with the given column order.

    Dataclasses and mappings are accepted; missing keys become empty cells,
    floats use the shortest round-trip representation, ``None`` is empty.
    Returns the CSV text; also writes it to ``path`` when given.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for record in records:
        mapping = _record_mapping(record)
        writer.writerow([_format_cell(mapping.get(col)) for col in columns])
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _json_cell(value: Any) -> Any:
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def records_to_json(
    records: Iterable[Any], columns: Sequence[str], path: str | Path | None = None
) -> str:
    """Render records as a JSON array of objects with fixed key order."""
    rows = []
    for record in records:
        mapping = _record_mapping(record)
        rows.append({col: _json_cell(mapping.get(col)) for col in columns})
    text = json.dumps(rows, indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def sweep_rows_to_csv(rows: Iterable[Any], path: str | Path | None = None) -> str:
    """CSV serialization of sweep rows with the fixed documented header."""
    return records_to_csv(rows, SWEEP_COLUMNS, path)


def sweep_rows_to_json(rows: Iterable[Any], path: str | Path | None = None) -> str:
    """JSON serialization of sweep rows mirroring the CSV schema."""
    return records_to_json(rows, SWEEP_COLUMNS, path)
