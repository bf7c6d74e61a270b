"""Metrics, the replicate experiment runner, rank-selection sweeps, and CV.

Grid cells are embarrassingly parallel: replicate r of sweep value s runs
on seed sha256(base_seed | param=value | rep=r) truncated to 64 bits, so
results do not depend on worker count or completion order.
"""

from __future__ import annotations

import csv
import hashlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any

import numpy as np

from . import estimators, io, spectral
from .errors import DataError, DeconfoundError, DimensionMismatchError
from .estimators import _check_positive
from .model import METHODS, Dataset, DebiasedEstimate, GroundTruth, SimulationConfig, _is_integer
from .simulate import DEFAULT_N_TEST, generate, split_statistics

SWEEP_PARAMS = ("eta_dep", "alpha", "sigma_w")
K_POLICIES = ("known", "selected")
SELECTORS = ("interaction", "non_interaction")


def sse_log(theta_hat: np.ndarray, a: np.ndarray) -> float:
    """log of the per-response squared estimation error (1/m)||theta - A||_F^2.

    Returns -inf when the error is exactly zero.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    a = np.asarray(a, dtype=float)
    if theta_hat.shape != a.shape:
        raise DimensionMismatchError(f"shape mismatch: {theta_hat.shape} vs {a.shape}")
    m = a.shape[1]
    return _log_error(float(np.sum((theta_hat - a) ** 2)) / m)


def pmse_log(theta_hat: np.ndarray, test: Dataset) -> float:
    """log of the mean squared prediction error over all test entries."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_hat.shape != (test.p, test.m):
        raise DimensionMismatchError(
            f"theta is {theta_hat.shape} but the test set needs ({test.p}, {test.m})"
        )
    resid = test.X @ theta_hat
    np.subtract(test.Y, resid, out=resid)
    return _log_error(float(np.mean(np.square(resid, out=resid))))


def _log_error(err: float) -> float:
    """log of a mean squared error; -inf when it is exactly zero."""
    return float("-inf") if err == 0.0 else float(np.log(err))


def snr(truth: GroundTruth) -> float:
    """Strength of the weakest hidden direction: lambda_K(B^T Sigma_W B) / m.

    Computed from the K x K Gram matrix sigma_w^2 B B^T, whose spectrum
    matches the nonzero spectrum of the m x m form.
    """
    gram = truth.sigma_w**2 * (truth.B @ truth.B.T)
    return float(np.linalg.eigvalsh(gram)[0]) / truth.m


def replicate_seed(base_seed: int, sweep_param: str, value: float, rep: int) -> int:
    """Stable 64-bit seed for one grid cell."""
    text = f"{base_seed}|{sweep_param}={float(value)!r}|rep={rep}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _cell_config(base: SimulationConfig, sweep_param: str, value: float, rep: int) -> SimulationConfig:
    """The config of replicate rep at one sweep value; a bad value raises DataError."""
    return replace(base, **{sweep_param: value, "seed": replicate_seed(base.seed, sweep_param, value, rep)})


def _check_sweep(base: SimulationConfig, sweep_param: str, values) -> tuple[float, ...]:
    """The sweep values as floats; DataError if there are none, or one is bad or repeated.

    Each value's config is built here, so a bad value fails before any
    bundle runs. A repeated value would draw the same datasets twice.
    """
    values = tuple(float(v) for v in values)
    if not values:
        raise DataError(f"{sweep_param} sweep list must be nonempty")
    for i, value in enumerate(values):
        _cell_config(base, sweep_param, value, 0)
        if value in values[:i]:
            raise DataError(f"{sweep_param} sweep list repeats the value {value}")
    return values


def _check_methods(methods) -> None:
    """DataError if there are no methods, or one is unknown or repeated (it would be fitted and counted twice)."""
    if not methods:
        raise DataError("methods list must be nonempty")
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise DataError(f"unknown method tag {method!r}")
        if method in methods[:i]:
            raise DataError(f"methods list repeats the tag {method!r}")


def _check_k_star(k_star: int | None, m: int) -> None:
    """DataError unless k_star is None or below m: the selector reads m eigenvalues per surface."""
    if k_star is not None and k_star >= m:
        raise DataError(f"k_star must be below m = {m}, got {k_star}: each surface has m eigenvalues")


@dataclass(frozen=True)
class ExperimentGrid:
    """One benchmark sweep: base config, swept parameter, methods, policy."""

    base: SimulationConfig
    sweep_param: str
    sweep_values: tuple[float, ...]
    replicates: int
    methods: tuple[str, ...]
    k_policy: str = "known"
    k_star: int | None = None
    n_iter: int = estimators.DEFAULT_N_ITER
    n_star: int = DEFAULT_N_TEST

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.sweep_param not in SWEEP_PARAMS:
            raise DataError(f"sweep parameter must be one of {SWEEP_PARAMS}")
        object.__setattr__(self, "sweep_values", _check_sweep(self.base, self.sweep_param, self.sweep_values))
        _check_positive(self.replicates, "replicates")
        _check_methods(self.methods)
        if self.k_policy not in K_POLICIES:
            raise DataError(f"k policy must be one of {K_POLICIES}")
        _check_positive(self.k_star, "k_star", optional=True)
        if self.k_policy == "selected":
            _check_k_star(self.k_star, self.base.m)
        _check_positive(self.n_iter, "n_iter")
        _check_positive(self.n_star, "n_star")

    def config_for(self, value: float, rep: int) -> SimulationConfig:
        return _cell_config(self.base, self.sweep_param, value, rep)


@dataclass(frozen=True)
class CellResult:
    """Outcome of one (sweep value, method, replicate) fit."""

    sweep_value: float
    method: str
    replicate: int
    sse_log: float | None
    pmse_log: float | None
    k_used: int | None
    error: str | None = None


@dataclass(frozen=True)
class AggregateRow:
    sweep_value: float
    method: str
    n_ok: int
    n_failed: int
    mean_sse_log: float | None
    se_sse_log: float | None
    mean_pmse_log: float | None
    se_pmse_log: float | None


def _mean_se(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    arr = np.array(values, dtype=float)
    mean = float(np.mean(arr))
    if arr.size < 2 or not np.all(np.isfinite(arr)):
        return mean, None
    return mean, float(np.std(arr, ddof=1) / np.sqrt(arr.size))


@dataclass(frozen=True)
class ExperimentReport:
    """Per-cell records plus per-(value, method) aggregates."""

    sweep_param: str
    records: tuple[CellResult, ...]
    aggregates: tuple[AggregateRow, ...]

    def _row(self, value: float, method: str) -> AggregateRow:
        for row in self.aggregates:
            if row.sweep_value == value and row.method == method:
                return row
        raise KeyError((value, method))

    def mean_sse_log(self, value: float, method: str) -> float | None:
        return self._row(value, method).mean_sse_log

    def mean_pmse_log(self, value: float, method: str) -> float | None:
        return self._row(value, method).mean_pmse_log

    def failure_count(self) -> int:
        return sum(1 for rec in self.records if rec.error is not None)


def _aggregate(sweep_param: str, records: list[CellResult], grid: ExperimentGrid) -> ExperimentReport:
    cells: dict[tuple[float, str], list[CellResult]] = {}
    for rec in records:
        cells.setdefault((rec.sweep_value, rec.method), []).append(rec)
    rows = []
    for value in grid.sweep_values:
        for method in grid.methods:
            cell = cells.get((value, method), [])
            ok = [r for r in cell if r.error is None]
            mean_sse, se_sse = _mean_se([r.sse_log for r in ok])
            mean_pmse, se_pmse = _mean_se([r.pmse_log for r in ok])
            rows.append(
                AggregateRow(
                    sweep_value=value,
                    method=method,
                    n_ok=len(ok),
                    n_failed=len(cell) - len(ok),
                    mean_sse_log=mean_sse,
                    se_sse_log=se_sse,
                    mean_pmse_log=mean_pmse,
                    se_pmse_log=se_pmse,
                )
            )
    return ExperimentReport(sweep_param=sweep_param, records=tuple(records), aggregates=tuple(rows))


def select_k_hat(dataset: Dataset, selector: str, k_star: int) -> int:
    """Rank estimate for one dataset under the given selector family."""
    with closing(estimators.Stage(dataset)) as stage:
        return stage.select_k(selector, k_star)


def _run_dataset(
    dataset: Dataset, methods, *, k: int | None, k_star: int | None, n_iter: int, truth: GroundTruth | None = None
) -> list[tuple[DebiasedEstimate | Exception, int | None]]:
    """(estimate or error, k_used) of each method on one dataset, through one shared stage.

    An error names its step, or starts "selection failed: ". With k None, K
    is selected per selector family, bounded by k_star (None: default_k_star).
    An invalid k, k_star or n_iter raises DataError at once.
    """
    _check_positive(k, "k", optional=True)
    _check_positive(k_star, "k_star", optional=True)
    if k is None:
        _check_k_star(k_star, dataset.m)
    _check_positive(n_iter, "n_iter")
    if k_star is None:
        k_star = spectral.default_k_star(dataset.n, dataset.m)
    outcomes = []
    with closing(estimators.Stage(dataset)) as stage:
        for method in methods:
            reads_k = method not in ("ols", "oracle")
            k_used = k if reads_k else None
            try:
                if reads_k and k is None:
                    k_used = stage.select_k(estimators._family(method), k_star)
                est = stage.fit(method, k=k_used, n_iter=n_iter, truth=truth)
                outcomes.append((est, est.k_used))
            except (DeconfoundError, np.linalg.LinAlgError) as err:
                # a fresh error: the raised one's traceback would keep the stage and the dataset alive
                failed = "selection failed: " if reads_k and k_used is None else ""
                outcomes.append((type(err)(f"{failed}{err}"), k_used))
    return outcomes


def _run_bundle(job: tuple[ExperimentGrid, float, int]) -> list[CellResult]:
    """Generate one dataset, fit every requested method on it, and score each fit.

    pmse_log is read from the test split's statistics, so no n_star x m array is built.
    """
    grid, value, rep = job
    config = grid.config_for(value, rep)
    dataset, truth = generate(config)
    split = split_statistics(config, truth, grid.n_star)
    k = config.k if grid.k_policy == "known" else None
    outcomes = _run_dataset(dataset, grid.methods, k=k, k_star=grid.k_star, n_iter=grid.n_iter, truth=truth)
    results = []
    for method, (est, k_used) in zip(grid.methods, outcomes):
        if isinstance(est, Exception):
            results.append(CellResult(value, method, rep, None, None, k_used, error=str(est)))
        else:
            pmse = _log_error(split.mean_squared_error(est.theta))
            results.append(CellResult(value, method, rep, sse_log(est.theta, truth.A), pmse, k_used))
    return results


def _map(fn, jobs: list, workers: int) -> list:
    """fn over jobs, in order: in this process, or in a pool of `workers` processes."""
    _check_positive(workers, "workers")
    if workers == 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=1))


def run_grid(grid: ExperimentGrid, workers: int = 1) -> ExperimentReport:
    """Run the full sweep x replicate grid and aggregate the metrics.

    Individual fit failures are recorded per cell and never abort the
    grid. With workers > 1 the bundles run in a process pool; results
    are identical to the sequential run.
    """
    jobs = [(grid, value, rep) for value in grid.sweep_values for rep in range(grid.replicates)]
    records = [rec for bundle in _map(_run_bundle, jobs, workers) for rec in bundle]
    return _aggregate(grid.sweep_param, records, grid)


@dataclass(frozen=True)
class KSelectionRecord:
    sigma_w: float
    replicate: int
    selector: str
    k_hat: int | None
    error: str | None = None


@dataclass(frozen=True)
class KSelectionReport:
    k_star: int
    records: tuple[KSelectionRecord, ...]

    def distribution(self, sigma_w: float, selector: str) -> dict[int, int]:
        counts: dict[int, int] = {}
        for rec in self.records:
            if rec.sigma_w == sigma_w and rec.selector == selector and rec.k_hat is not None:
                counts[rec.k_hat] = counts.get(rec.k_hat, 0) + 1
        return dict(sorted(counts.items()))

    def mode(self, sigma_w: float, selector: str) -> int | None:
        counts = self.distribution(sigma_w, selector)
        if not counts:
            return None
        best = max(counts.values())
        return min(k for k, c in counts.items() if c == best)


def _run_k_selection_cell(args: tuple[SimulationConfig, int, int]) -> list[KSelectionRecord]:
    config, rep, k_star = args
    dataset, _ = generate(config)
    out = []
    with closing(estimators.Stage(dataset)) as stage:
        for selector in SELECTORS:
            try:
                out.append(KSelectionRecord(config.sigma_w, rep, selector, stage.select_k(selector, k_star)))
            except (DeconfoundError, np.linalg.LinAlgError) as err:
                out.append(KSelectionRecord(config.sigma_w, rep, selector, None, error=str(err)))
    return out


def run_k_selection(
    base: SimulationConfig,
    sigma_w_values: list[float],
    k_star: int,
    replicates: int,
    workers: int = 1,
) -> KSelectionReport:
    """Empirical distribution of the rank estimate across noise scales.

    Runs both the interaction selector (votes over the p+1 interaction
    surfaces) and the single-surface non-interaction selector on every
    generated dataset.
    """
    _check_positive(replicates, "replicates")
    _check_positive(k_star, "k_star")
    _check_k_star(k_star, base.m)
    jobs = [
        (_cell_config(base, "sigma_w", value, rep), rep, k_star)
        for value in _check_sweep(base, "sigma_w", sigma_w_values)
        for rep in range(replicates)
    ]
    cells = _map(_run_k_selection_cell, jobs, workers)
    return KSelectionReport(k_star=k_star, records=tuple(r for cell in cells for r in cell))


@dataclass(frozen=True)
class CVFoldResult:
    """Outcome of one (fold, method) fit; pmse_log is None when it failed."""

    fold: int
    method: str
    pmse_log: float | None
    k_used: int | None
    error: str | None = None


@dataclass(frozen=True)
class CVReport:
    folds: int
    records: tuple[CVFoldResult, ...]

    def mean_pmse_log(self, method: str) -> float | None:
        """Mean over the folds that succeeded; None when every fold failed."""
        values = [r.pmse_log for r in self.records if r.method == method and r.error is None]
        if not values and method not in self.methods():
            raise KeyError(method)
        return float(np.mean(values)) if values else None

    def methods(self) -> tuple[str, ...]:
        seen: list[str] = []
        for rec in self.records:
            if rec.method not in seen:
                seen.append(rec.method)
        return tuple(seen)

    def failure_count(self) -> int:
        return sum(1 for rec in self.records if rec.error is not None)


def fold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Deterministic fold assignment: seeded shuffle, then contiguous blocks."""
    if not _is_integer(folds):
        raise DataError(f"folds must be an integer, got {folds!r}")
    if folds < 2:
        raise DataError("need at least 2 folds")
    if folds > n:
        raise DataError(f"cannot split n = {n} rows into {folds} folds")
    if not _is_integer(seed) or not 0 <= seed < 2**64:
        raise DataError("seed must fit in an unsigned 64-bit integer")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=int(seed))))
    perm = rng.permutation(n)
    return [np.sort(block) for block in np.array_split(perm, folds)]


def cross_validate(
    dataset: Dataset,
    folds: int,
    methods: list[str],
    k: int | None = None,
    k_star: int | None = None,
    n_iter: int = estimators.DEFAULT_N_ITER,
    seed: int = 0,
) -> CVReport:
    """K-fold prediction error for each method.

    Fits on the training rows of every fold and evaluates the projected
    estimate's log prediction MSE on the held-out rows. An integer k is
    used as the known rank; with k None the rank is selected on each
    training split, bounded by k_star, so no information leaks from the
    held-out rows. Invalid arguments raise DataError before any fit; a
    fit that fails is recorded with its step, and the other folds and
    methods carry on.
    """
    _check_methods(methods)
    if "oracle" in methods:
        raise DataError("the oracle method needs the ground truth; it cannot be cross-validated")
    records = []
    for fold, held_out in enumerate(fold_indices(dataset.n, folds, seed)):
        mask = np.ones(dataset.n, dtype=bool)
        mask[held_out] = False
        train = Dataset(X=dataset.X[mask], Y=dataset.Y[mask])
        test = Dataset(X=dataset.X[held_out], Y=dataset.Y[held_out])
        outcomes = _run_dataset(train, methods, k=k, k_star=k_star, n_iter=n_iter)
        for method, (est, k_used) in zip(methods, outcomes):
            if isinstance(est, Exception):
                records.append(CVFoldResult(fold, method, None, k_used, error=str(est)))
            else:
                records.append(CVFoldResult(fold, method, pmse_log(est.theta, test), k_used))
    return CVReport(folds=folds, records=tuple(records))


# ---------------------------------------------------------------------------
# Report writers (tidy records CSV, aggregate CSV, JSON): a record's fields are its columns


def _columns(record_type) -> list[str]:
    """The record type's field names in declaration order; sweep_value is written as value."""
    return ["value" if f.name == "sweep_value" else f.name for f in fields(record_type)]


def _values(record, encode) -> list:
    """The record's field values in declaration order, each float through encode."""
    values = (getattr(record, f.name) for f in fields(record))
    return [encode(v) if isinstance(v, float) else v for v in values]


def write_report_csv(report: ExperimentReport, records_path: str | Path, aggregate_path: str | Path) -> None:
    for path, record_type, rows in (
        (records_path, CellResult, report.records),
        (aggregate_path, AggregateRow, report.aggregates),
    ):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sweep_param", *_columns(record_type)])
            writer.writerows([report.sweep_param, *_values(row, io.format_metric)] for row in rows)


def report_to_obj(report: ExperimentReport) -> dict[str, Any]:
    return {
        "sweep_param": report.sweep_param,
        "records": [dict(zip(_columns(CellResult), _values(r, io.metric_to_json_value))) for r in report.records],
        "aggregates": [
            dict(zip(_columns(AggregateRow), _values(r, io.metric_to_json_value))) for r in report.aggregates
        ],
    }


def k_selection_to_obj(report: KSelectionReport) -> dict[str, Any]:
    values = sorted({rec.sigma_w for rec in report.records})
    return {
        "k_star": report.k_star,
        "records": [
            dict(zip(_columns(KSelectionRecord), _values(r, io.metric_to_json_value))) for r in report.records
        ],
        "summary": [
            {
                "sigma_w": value,
                "selector": selector,
                "distribution": {str(k): c for k, c in report.distribution(value, selector).items()},
                "mode": report.mode(value, selector),
            }
            for value in values
            for selector in SELECTORS
        ],
    }


def cv_report_to_obj(report: CVReport) -> dict[str, Any]:
    return {
        "folds": report.folds,
        "mean_pmse_log": {
            method: io.metric_to_json_value(report.mean_pmse_log(method))
            for method in report.methods()
        },
        "records": [dict(zip(_columns(CVFoldResult), _values(r, io.metric_to_json_value))) for r in report.records],
    }
