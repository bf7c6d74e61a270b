"""CSV and JSON serialization for datasets, ground truths, and reports.

Matrices serialize to JSON objects {"shape": [...], "data": [...]} with
row-major data. All numeric text output uses 17 significant digits so
values round-trip exactly through parsing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .errors import DataError
from .model import Dataset, GroundTruth

FLOAT_FMT = "%.17g"


def matrix_to_obj(a: np.ndarray) -> dict[str, Any]:
    a = np.asarray(a, dtype=float)
    return {"shape": list(a.shape), "data": [float(x) for x in a.ravel(order="C")]}


def obj_to_matrix(obj: dict[str, Any]) -> np.ndarray:
    try:
        return np.array(obj["data"], dtype=float).reshape(obj["shape"], order="C")
    except (KeyError, TypeError, ValueError) as err:
        raise DataError(f"malformed matrix object: {err}") from err


def save_matrix_csv(path: str | Path, a: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(a), delimiter=",", fmt=FLOAT_FMT)


def load_matrix_csv(path: str | Path, header: bool = False) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    try:
        arr = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2, dtype=float)
    except ValueError as err:
        raise DataError(f"could not parse {path}: {err}") from err
    if arr.size == 0:
        raise DataError(f"{path} holds no rows")
    return arr


def load_dataset(x_path: str | Path, y_path: str | Path, header: bool = False) -> Dataset:
    """Read paired X/Y CSV files (one sample per row, no header by default)."""
    return Dataset(X=load_matrix_csv(x_path, header), Y=load_matrix_csv(y_path, header))


def save_dataset(dataset: Dataset, x_path: str | Path, y_path: str | Path) -> None:
    save_matrix_csv(x_path, dataset.X)
    save_matrix_csv(y_path, dataset.Y)


def ground_truth_to_obj(truth: GroundTruth) -> dict[str, Any]:
    return {
        "a": matrix_to_obj(truth.A),
        "b": matrix_to_obj(truth.B),
        "c": [matrix_to_obj(c) for c in truth.C],
        "psi": matrix_to_obj(truth.psi),
        "sigma_w": truth.sigma_w,
        "tau2": [float(x) for x in truth.tau2],
    }


def ground_truth_from_obj(obj: dict[str, Any]) -> GroundTruth:
    try:
        return GroundTruth(
            A=obj_to_matrix(obj["a"]),
            B=obj_to_matrix(obj["b"]),
            C=tuple(obj_to_matrix(c) for c in obj["c"]),
            psi=obj_to_matrix(obj["psi"]),
            sigma_w=float(obj["sigma_w"]),
            tau2=np.array(obj["tau2"], dtype=float),
        )
    except KeyError as err:
        raise DataError(f"ground truth document missing field {err}") from err
    except (TypeError, ValueError) as err:
        raise DataError(f"malformed ground truth document: {err}") from err


def write_json(path: str | Path, obj: dict[str, Any]) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def read_json(path: str | Path) -> dict[str, Any]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise DataError(f"could not parse {path}: {err}") from err


def metric_to_json_value(x: float | None) -> float | str | None:
    """Map non-finite metric values to the strings '-inf'/'inf'/'nan'."""
    if x is None:
        return None
    if np.isfinite(x):
        return float(x)
    if np.isnan(x):
        return "nan"
    return "-inf" if x < 0 else "inf"


def format_metric(x: float | None) -> str:
    """CSV cell for a metric: 17-digit float, '-inf', or empty for missing."""
    if x is None:
        return ""
    return FLOAT_FMT % x
