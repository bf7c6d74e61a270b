"""The benchmark workloads, their timed phases and the correctness gate.

Every workload is a closed loop from one caller: the next operation
starts when the previous one has returned. Each phase calls one public
entry point of the package repeatedly and times each call on its own;
the gate checks the outputs after the phase, outside the timed calls.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from deconfound import bench, cli, estimators, io, simulate, spectral
from deconfound.errors import DeconfoundError
from deconfound.model import METHODS, SimulationConfig

P = 2
K = 3
#: Methods timed one by one in the fit phase (what `deconfound fit` costs apart from I/O).
FIT_METHODS = ("interaction_homo", "interaction_hetero", "non_interaction_homo", "non_interaction_hetero")
ETA_SWEEP = (0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3)
ALPHA_SWEEP = (0.0, 3.0, 6.0, 9.0, 12.0, 15.0)
#: A fit round calls each method until it has run this long, and at least
#: once, so a cheap method gets as many samples as a dear one gets time.
FIT_SLICE_S = 0.1
#: Base seeds of bundle rounds are seed * ROUND_STRIDE + round; the warm-up uses the last one.
ROUND_STRIDE = 100_000
WARMUP_ROUND = ROUND_STRIDE - 1
#: Relative error of theta that ROADMAP aim 3 allows between two versions.
THETA_RTOL = 1e-8
#: Upper bound on ||theta||^2 / m and on the mean squared prediction, used to turn
#: THETA_RTOL into a tolerance on the logged error metrics (see log_tolerance).
SIGNAL_SCALE = 2.0
STEP_RE = re.compile(r"^step \d \(|^selection failed: ")


@dataclass(frozen=True)
class Workload:
    """One set of inputs: a problem shape, a sweep grid and a CLI job."""

    name: str
    m: int
    n: int
    noise: str
    sweep_param: str
    sweep_values: tuple[float, ...]
    methods: tuple[str, ...]
    #: CLI command and flags; the benchmark adds --x, --y and --out.
    job: tuple[str, ...]
    k_policy: str = "known"
    alpha: float = 0.0
    replicates: int = 1
    min_bundles: int = 6

    @property
    def cells(self) -> int:
        return len(self.sweep_values) * self.replicates

    def base(self, seed: int, round_: int) -> SimulationConfig:
        return SimulationConfig(
            n=self.n, m=self.m, p=P, k=K, eta_dep=0.5, alpha=self.alpha, noise=self.noise,
            seed=seed * ROUND_STRIDE + round_,
        )

    def grid(self, seed: int, round_: int = 0) -> bench.ExperimentGrid:
        """The full sweep grid of round 0, as `deconfound benchmark` would run it."""
        return bench.ExperimentGrid(
            base=self.base(seed, round_), sweep_param=self.sweep_param,
            sweep_values=self.sweep_values, replicates=self.replicates,
            methods=self.methods, k_policy=self.k_policy,
        )

    def pool_grid(self, seed: int) -> bench.ExperimentGrid:
        """Two cells of round 0, one per worker of a workers=2 pool."""
        values = self.sweep_values[:2]
        return bench.ExperimentGrid(
            base=self.base(seed, 0), sweep_param=self.sweep_param, sweep_values=values,
            replicates=2 if len(values) == 1 else 1, methods=self.methods, k_policy=self.k_policy,
        )

    def bundle_grid(self, seed: int, j: int) -> bench.ExperimentGrid:
        """One-cell grid of bundle j: sweep value j mod V of round j div V."""
        values = self.sweep_values
        return bench.ExperimentGrid(
            base=self.base(seed, j // len(values)), sweep_param=self.sweep_param,
            sweep_values=(values[j % len(values)],), replicates=1,
            methods=self.methods, k_policy=self.k_policy,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "s1_homo", m=25, n=1000, noise="homoscedastic", sweep_param="eta_dep",
            sweep_values=ETA_SWEEP, methods=METHODS, min_bundles=7,
            job=("cv", "--k", str(K), "--folds", "5"),
        ),
        Workload(
            "s2_hetero", m=500, n=100, noise="heteroscedastic", sweep_param="alpha",
            sweep_values=ALPHA_SWEEP, methods=METHODS, alpha=6.0, min_bundles=6,
            job=("fit", "--method", "interaction_hetero", "--k", str(K)),
        ),
        Workload(
            "s2_autok", m=500, n=100, noise="homoscedastic", sweep_param="eta_dep",
            sweep_values=ETA_SWEEP, methods=("ols", "non_interaction_homo", "interaction_homo"),
            k_policy="selected", min_bundles=7,
            job=("fit", "--method", "interaction_homo", "--k", "auto"),
        ),
        Workload(
            "cv_stress", m=500, n=1000, noise="heteroscedastic", sweep_param="alpha",
            sweep_values=(6.0,), methods=METHODS, alpha=6.0, replicates=2, min_bundles=3,
            job=("cv", "--k", str(K), "--folds", "5"),
        ),
    )
}


def log_tolerance(value: float) -> float:
    """Largest change of log(error) that a THETA_RTOL change of theta can cause.

    With e = ||theta - A||^2 / m (or the mean squared prediction error)
    and r = THETA_RTOL * sqrt(SIGNAL_SCALE / e), a perturbation of
    relative size THETA_RTOL moves e by at most a factor (1 + r)^2, so
    log(e) by at most 2r + r^2.
    """
    r = THETA_RTOL * math.sqrt(SIGNAL_SCALE / math.exp(value))
    return 2 * r + r * r


def same(a, b) -> bool:
    """Reference comparison: logged metrics within log_tolerance, all else equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= log_tolerance(b)
    return a == b


def bundle_rows(report) -> list:
    return [[r.method, r.sse_log, r.pmse_log, r.k_used, r.error is not None] for r in report.records]


def fit_rows(inputs, i: int, row: dict) -> list:
    _, truth = inputs.datasets[i % len(inputs.datasets)]
    return [[method, bench.sse_log(calls[0][1].theta, truth.A)] for method, calls in row.items()]


def select_summary(outcome) -> int | str:
    return outcome if isinstance(outcome, int) else "declined"


@dataclass
class Inputs:
    """What set-up leaves behind: CSVs on disk and in-memory datasets."""

    work: Path
    datasets: list = field(default_factory=list)

    @property
    def x_csv(self) -> Path:
        return self.work / "X.csv"

    @property
    def y_csv(self) -> Path:
        return self.work / "Y.csv"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process, with its stderr captured."""
    err = _io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def prepare(w: Workload, seed: int, work: Path) -> Inputs:
    """Write the job's CSVs with `deconfound simulate` and draw the round-0 datasets."""
    work.mkdir(parents=True, exist_ok=True)
    argv = [
        "simulate", "--n", str(w.n), "--m", str(w.m), "--p", str(P), "--k", str(K),
        "--eta", "0.5", "--alpha", repr(w.alpha),
        "--noise", "homo" if w.noise == "homoscedastic" else "hetero",
        "--seed", str(seed), "--out", str(work),
    ]
    code, err = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"deconfound simulate exited {code}: {err.strip()}")
    grid = w.grid(seed)
    inputs = Inputs(work=work)
    for value in grid.sweep_values:
        for rep in range(grid.replicates):
            inputs.datasets.append(simulate.generate(grid.config_for(value, rep)))
    return inputs


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


class Gate:
    """Counts attempted operations and failed or wrong ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.wrong) < 20:
            self.wrong.append(message)

    # -- per-phase checks ----------------------------------------------------

    def check_bundle(self, w: Workload, j: int, report, expected_k: dict | None) -> None:
        records = report.records
        self.attempted += len(records)
        if [r.method for r in records] != list(w.methods):
            self.fail(f"bundle {j}: methods {[r.method for r in records]}")
        for rec in records:
            where = f"bundle {j} {rec.method}"
            if rec.error is not None:
                named = "" if STEP_RE.search(rec.error) else " (does not name its step)"
                self.fail(f"{where} failed{named}: {rec.error}")
                continue
            if not (math.isfinite(rec.sse_log) and math.isfinite(rec.pmse_log)):
                self.fail(f"{where}: non-finite metric")
            if rec.method == "ols":
                want_k = None
            elif rec.method == "oracle" or w.k_policy == "known":
                want_k = K
            elif expected_k is not None:
                want_k = expected_k["interaction" if rec.method.startswith("interaction") else "non_interaction"]
            else:
                want_k = rec.k_used if isinstance(rec.k_used, int) and rec.k_used >= 1 else "a positive int"
            if rec.k_used != want_k:
                self.fail(f"{where}: k_used {rec.k_used}, expected {want_k}")

    def check_fit(self, w: Workload, method: str, est) -> None:
        self.attempted += 1
        theta = est.theta
        if theta.shape != (P, w.m) or not np.all(np.isfinite(theta)):
            self.fail(f"fit {method}: theta shape {theta.shape} or non-finite")
        elif est.method != method or est.k_used != K:
            self.fail(f"fit {method}: returned method {est.method}, k_used {est.k_used}")

    def check_select(self, outcome, k_star: int) -> None:
        """An int in 1..k_star, or the documented refusal of the ratio test."""
        self.attempted += 1
        if isinstance(outcome, int):
            if not 1 <= outcome <= k_star:
                self.fail(f"select_k returned {outcome} outside 1..{k_star}")
        elif not (isinstance(outcome, DeconfoundError) and "spectrum '" in str(outcome)):
            self.fail(f"select_k raised {type(outcome).__name__}: {outcome}")

    def check_job(self, w: Workload, code: int, err: str, out: Path):
        """Parse the job's output file; returns its reference summary or None."""
        self.attempted += 1
        if code != 0:
            self.fail(f"job exited {code}: {err.strip()[-300:]}")
            return None
        if w.job[0] == "cv":
            doc = json.loads(out.read_text())
            means = doc.get("mean_pmse_log", {})
            if sorted(means) != sorted(cli.CV_METHODS) or not all(
                isinstance(v, float) and math.isfinite(v) for v in means.values()
            ):
                self.fail(f"cv job: mean_pmse_log {means}")
                return None
            return {"mean_pmse_log": means}
        theta = np.loadtxt(out, delimiter=",", ndmin=2)
        if theta.shape != (P, w.m) or not np.all(np.isfinite(theta)):
            self.fail(f"fit job: theta shape {theta.shape} or non-finite")
            return None
        truth = io.ground_truth_from_obj(io.read_json(out.parent / "truth.json"))
        return {"theta_sse_log": bench.sse_log(theta, truth.A)}


# ---------------------------------------------------------------------------
# Phases. Each *_step(...) returns step(i), which makes and times call i of
# its phase. `scope(name, fn, *args)` calls fn, inside a span when tracing.


def plain(_name, fn, *args):
    return fn(*args)


def interleave(phases: dict, seconds: float) -> dict[str, list]:
    """Run phases {name: (step, share, min_count)} until `seconds` passed.

    Each next call goes to the phase that has used the smallest part of
    its share of the time so far, so a slow spell of the machine falls on
    every phase alike. After `seconds`, only phases short of their
    minimum call count keep running.
    """
    spent = dict.fromkeys(phases, 0.0)
    out: dict[str, list] = {name: [] for name in phases}
    start = time.perf_counter()
    while True:
        short = [name for name, (_, _, least) in phases.items() if len(out[name]) < least]
        if time.perf_counter() - start >= seconds:
            if not short:
                return out
            candidates = short
        else:
            candidates = list(phases)
        name = min(candidates, key=lambda n: spent[n] / phases[n][1])
        began = time.perf_counter()
        out[name].append(phases[name][0](len(out[name])))
        spent[name] += time.perf_counter() - began


def bundle_step(w, seed, scope=plain):
    """Bundle i: a one-cell run_grid call with workers=1."""

    def step(i):
        dt, report = timed(scope, "bundle", lambda g: bench.run_grid(g, workers=1), w.bundle_grid(seed, i))
        return i, dt, report

    return step


def grid_step(grid, workers=1, scope=plain):
    """A whole grid through run_grid."""
    return lambda i: timed(scope, "grid", bench.run_grid, grid, workers)


def fit_step(inputs):
    """fit_method for each FIT_METHODS entry on one round-0 dataset, K known.

    Round i returns (i, {method: [(seconds, estimate), ...]}).
    """

    def step(i):
        dataset, _ = inputs.datasets[i % len(inputs.datasets)]
        row = {}
        for method in FIT_METHODS:
            calls = row[method] = []
            while not calls or sum(dt for dt, _ in calls) < FIT_SLICE_S:
                calls.append(timed(estimators.fit_method, dataset, method, k=K))
        return i, row

    return step


def select_step(inputs):
    """bench.select_k_hat with the interaction selector: the cost of --k auto."""

    def step(i):
        dataset, _ = inputs.datasets[i % len(inputs.datasets)]
        k_star = spectral.default_k_star(dataset.n, dataset.m)
        start = time.perf_counter()
        try:
            outcome = bench.select_k_hat(dataset, "interaction", k_star)
        except (DeconfoundError, np.linalg.LinAlgError) as err:
            outcome = err
        return i, time.perf_counter() - start, outcome, k_star

    return step


def job_argv(w: Workload, inputs: Inputs) -> tuple[list[str], Path]:
    out = inputs.work / ("cv.json" if w.job[0] == "cv" else "theta.csv")
    argv = [w.job[0], "--x", str(inputs.x_csv), "--y", str(inputs.y_csv), *w.job[1:], "--out", str(out)]
    return argv, out


def job_step(w, inputs, gate, scope=plain):
    """One in-process CLI job through cli.main; the output is checked at once."""
    argv, out = job_argv(w, inputs)

    def step(i):
        dt, (code, err) = timed(scope, "job", run_cli, argv)
        summary = gate.check_job(w, code, err, out)
        return i, dt, summary, out.read_bytes() if code == 0 else b""

    return step


def check_phases(w, gate, out: dict, expected_k=None) -> None:
    """Gate checks of the bundle, grid, fit and select calls in `out`."""
    for j, _, report in out.get("bundle", ()):
        gate.check_bundle(w, j, report, expected_k[j] if expected_k and j < len(expected_k) else None)
    for _, report in out.get("grid", ()):
        gate.attempted += len(report.records)
    for _, row in out.get("fit", ()):
        for method, calls in row.items():
            for _, est in calls:
                gate.check_fit(w, method, est)
    for _, _, outcome, k_star in out.get("select", ()):
        gate.check_select(outcome, k_star)


def expected_k_hats(w: Workload, inputs: Inputs) -> list[dict] | None:
    """k the bundles of round 0 must use under the "selected" policy."""
    if w.k_policy != "selected" or w.replicates != 1:
        return None
    out = []
    for dataset, _ in inputs.datasets:
        k_star = spectral.default_k_star(dataset.n, dataset.m)
        row = {}
        for selector in ("interaction", "non_interaction"):
            try:
                row[selector] = bench.select_k_hat(dataset, selector, k_star)
            except (DeconfoundError, np.linalg.LinAlgError) as err:
                row[selector] = f"selection failed: {err}"
        out.append(row)
    return out


def reference_entry(inputs, bundles, fits, selects, jobs) -> dict:
    """The outputs check_reference compares, in the form reference.json stores."""
    return {
        "bundles": [bundle_rows(report) for _, _, report in bundles],
        "fits": [fit_rows(inputs, i, row) for i, row in fits],
        "select": [select_summary(outcome) for _, _, outcome, _ in selects],
        "job": jobs[0][2],
    }


def check_reference(ref: dict, gate: Gate, inputs, bundles, fits=(), selects=(), jobs=()) -> None:
    """Compare this run's outputs with the entry recorded for the default seed."""
    for j, _, report in bundles:
        if j < len(ref["bundles"]) and not same(bundle_rows(report), ref["bundles"][j]):
            gate.fail(f"bundle {j} differs from the reference")
    for i, row in fits:
        if i < len(ref["fits"]) and not same(fit_rows(inputs, i, row), ref["fits"][i]):
            gate.fail(f"fit round {i} differs from the reference")
    for i, _, outcome, _ in selects:
        if i < len(ref["select"]) and select_summary(outcome) != ref["select"][i]:
            gate.fail(f"select_k call {i} differs from the reference")
    for i, _, summary, _ in jobs:
        if summary is not None and not same(summary, ref["job"]):
            gate.fail(f"job {i} output differs from the reference")
