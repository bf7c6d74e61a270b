"""Compare the numerical results of two deconfound source trees on fixed seeds.

    python3 tools/aim3_compare.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.
Each tree is imported in its own subprocess with one BLAS thread. On
every dataset the subprocess fits all six methods with K known and runs
both rank selectors with the default k_star, each through its public
single-method entry point. It then runs the shared per-dataset path:
one `run_grid` bundle of all six methods with K known, one with K
selected, and one 3-fold `cross_validate` of the five non-oracle methods
with K known. The datasets cover S1 (m=25, n=1000), S2 (m=500, n=100),
the stress point (m=500, n=1000) and m=400, n=250, where the n < m
cores are above the block iteration's size rule, each under
homoscedastic and alpha=6 heteroscedastic noise, on a fixed seed list.

One more S2-shaped dataset, the simulated X with a rank-20 signal plus
1e-4 noise as Y, puts the residuals' Gram eigenvalues 21 and on near
1e-11 of the largest, so the n < m cores are refused there. All six
methods are fitted on it with K known, and both rank selectors run.

Each S2 dataset also gets one interaction_homo fit at K = 40, above
every phi_C(j)'s 25-35 eigenvalues above round-off there, so top-k
blocks that reach a surface's null space are compared on every run.
That fit's top-k blocks are compared one by one, not its basis or theta:
the phi_C(j) blocks share null-space vectors, so their concatenation
has singular values down to ~1e-15 of the largest (a
DegenerateBasisWarning), and a 1e-14 change in one block can move the
final basis by O(1) within either tree. Each S2 dataset also gets one
non_interaction_homo fit at K = 99, above the n - p = 98 eigenvalues
of the mean outer product's n x n core, so that family's fallback to
the m x m surface is compared on every run; its one block, the basis,
is compared the same way.

Each S2 and stress dataset also gets one interaction_hetero and one
non_interaction_hetero fit at n_iter = 20, so long HeteroPCA chains
(warm-started from step to step in a tree that does so) are compared by
basis and theta like the other fits.

Three fixed failing datasets (n=60, m=8, p=2: the simulated X with two
equal columns, X = 0, and X times 1e160, whose products X_j X_k
overflow) are fitted by all six methods with K = 2 through fit_method,
the oracle with the dataset's own truth. A fit that succeeds in one tree
and fails in the other is a changed outcome; each error class or message
that differs is printed, not gated.

The script prints the largest sin-theta between the projection bases the
two trees fit with and the largest relative Frobenius error of theta,
over every fit of both kinds of call, the largest absolute change of
pmse_log over the run_grid and cross_validate records (printed, not
gated), whether each dataset's p+1 step-3 surfaces (phi_B and each
phi_C(j), built by regress.fit_first_stage, diagonal_weights and
fit_diagonal_surfaces) match bitwise between the trees (compared by
digest, printed, not gated: a change may rework that arithmetic on
purpose), and whether any K selection, fit outcome, recorded K or recorded
error changed. It exits 1 when a result
breaks ROADMAP aim 3 (sin-theta above 1e-10, theta error above 1e-8, a
changed selection or outcome), or when the two trees draw different
datasets, different N_STAR-row test splits, or different split
statistics (the gram, cross and noise_ss that simulate.split_statistics
streams from the same split, which is what the bundles score), each
compared bitwise by digest, since their results are then not comparable.
Needs only numpy.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np

BASIS_BOUND = 1e-10
THETA_BOUND = 1e-8
SETTINGS = {
    "S1": (25, 1000, range(6)),
    "S2": (500, 100, range(6)),
    "stress": (500, 1000, range(3)),
    "m400 n250": (400, 250, range(1)),
}
NOISES = {"homo": ("homoscedastic", 0.0), "alpha6": ("heteroscedastic", 6.0)}
METHODS = ("ols", "oracle", "interaction_homo", "interaction_hetero", "non_interaction_homo", "non_interaction_hetero")
SELECTORS = ("interaction", "non_interaction")
RUNS = ("bundle known", "bundle selected", "cv 3-fold")
SURFACES = "step-3 surfaces"
SPLIT_STATS = "split statistics"
#: The extra S2 fits whose blocks reach a surface's null space, by label: (method, known K).
#: interaction_homo: (p+1)K = 120 <= m = 500; non_interaction_homo: K = n - p + 1.
NULL_SPACE_FITS = {
    "interaction_homo K=40 blocks": ("interaction_homo", 40),
    "non_interaction_homo K=99 block": ("non_interaction_homo", 99),
}
#: HeteroPCA steps of the long-chain fits on the m = 500 datasets.
LONG_N_ITER = 20
LONG_CHAINS = tuple(f"{method} n_iter={LONG_N_ITER}" for method in ("interaction_hetero", "non_interaction_hetero"))
#: Designs of the failing datasets, each from the simulated X of FAILING_CONFIG.
FAILING = {
    "equal columns": lambda x: x[:, [0, 0]],
    "zero X": np.zeros_like,
    "X x 1e160": lambda x: 1e160 * x,
}
FAILING_CONFIG = {"n": 60, "m": 8, "p": 2, "k": 2, "seed": 0}
#: The near-low-rank dataset: X and truth drawn from NEAR_LOW_RANK_CONFIG, Y a signal of rank NEAR_LOW_RANK_Y["rank"]
#: plus NEAR_LOW_RANK_Y["noise"] times Gaussian noise, both from NEAR_LOW_RANK_Y["seed"].
NEAR_LOW_RANK = "near low rank/S2 seed 0"
NEAR_LOW_RANK_CONFIG = {"n": 100, "m": 500, "p": 2, "k": 3, "seed": 0}
NEAR_LOW_RANK_Y = {"rank": 20, "noise": 1e-4, "seed": 1}
#: Test-split rows of each bundle: enough for the metrics, cheap at m = 500.
N_STAR = 1000
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run_tree(src: str, out_path: str) -> None:
    """Subprocess side: fit every case with the tree at src and pickle the results."""
    sys.path.insert(0, os.path.abspath(src))
    from deconfound import bench, estimators, regress, spectral
    from deconfound.errors import DeconfoundError
    from deconfound.model import Dataset, SimulationConfig
    from deconfound.simulate import generate, generate_test_split, split_statistics

    if not os.path.abspath(estimators.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"imported deconfound from {estimators.__file__}, not from {src}")
    warnings.simplefilter("ignore")
    captured = []
    fit_projected_ols = regress.fit_projected_ols
    build_projection = spectral.build_projection
    blocks = []

    def capture_basis(dataset, basis, *args, **kwargs):
        est = fit_projected_ols(dataset, basis, *args, **kwargs)
        captured.append((est.theta, np.array(basis.U)))
        return est

    def capture_blocks(parts):
        blocks[:] = [np.array(part) for part in parts]
        return build_projection(parts)

    def run(call, rows):
        """Recorded rows and captured fits of one bench call, or its error class name."""
        captured.clear()
        try:
            report = call()
        except (DeconfoundError, np.linalg.LinAlgError) as err:
            return type(err).__name__
        return rows(report), list(captured)

    def bundle_rows(report):
        return [(r.method, r.k_used, r.error, r.pmse_log) for r in report.records]

    def cv_rows(report):
        return [(f"fold {r.fold} {r.method}", r.k_used, r.error, r.pmse_log) for r in report.records]

    def fit_singles(case, dataset, truth):
        """All six methods with K = 3 and both selectors with the default k_star, each on its own."""
        for method in METHODS:
            captured.clear()
            try:
                estimators.fit_method(dataset, method, k=3, truth=truth)
                results[(case, method)] = captured[-1]
            except (DeconfoundError, np.linalg.LinAlgError) as err:
                results[(case, method)] = type(err).__name__
        for selector in SELECTORS:
            try:
                results[(case, selector)] = bench.select_k_hat(dataset, selector, spectral.default_k_star(dataset.n, dataset.m))
            except (DeconfoundError, np.linalg.LinAlgError) as err:
                results[(case, selector)] = type(err).__name__

    regress.fit_projected_ols = capture_basis
    spectral.build_projection = capture_blocks
    results = {}
    base, truth = generate(SimulationConfig(**FAILING_CONFIG))
    for name, design in FAILING.items():
        dataset = Dataset(X=design(base.X), Y=base.Y)
        for method in METHODS:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    estimators.fit_method(dataset, method, k=FAILING_CONFIG["k"], truth=truth)
                results[(f"failing/{name}", method)] = "ok"
            except (DeconfoundError, np.linalg.LinAlgError) as err:
                results[(f"failing/{name}", method)] = (type(err).__name__, str(err))
    base, truth = generate(SimulationConfig(**NEAR_LOW_RANK_CONFIG))
    rank, rng = NEAR_LOW_RANK_Y["rank"], np.random.default_rng(NEAR_LOW_RANK_Y["seed"])
    signal = rng.standard_normal((base.n, rank)) @ rng.standard_normal((rank, base.m))
    dataset = Dataset(X=base.X, Y=signal + NEAR_LOW_RANK_Y["noise"] * rng.standard_normal((base.n, base.m)))
    fit_singles(NEAR_LOW_RANK, dataset, truth)
    for setting, (m, n, seeds) in SETTINGS.items():
        for noise_name, (noise, alpha) in NOISES.items():
            for seed in seeds:
                case = f"{setting}/{noise_name}/seed {seed}"
                config = SimulationConfig(n=n, m=m, p=2, k=3, noise=noise, alpha=alpha, seed=seed)
                dataset, truth = generate(config)
                results[(case, "data")] = (dataset.X, dataset.Y)
                test = generate_test_split(config, truth, N_STAR)
                results[(case, "test split")] = hashlib.sha256(test.X.tobytes() + test.Y.tobytes()).hexdigest()
                stats = split_statistics(config, truth, N_STAR)
                results[(case, SPLIT_STATS)] = hashlib.sha256(
                    stats.gram.tobytes() + stats.cross.tobytes() + np.float64(stats.noise_ss).tobytes()
                ).hexdigest()
                eps = regress.fit_first_stage(dataset).residuals
                surfaces = regress.fit_diagonal_surfaces(eps, regress.diagonal_weights(dataset.X), list(range(dataset.p + 1)))
                results[(case, SURFACES)] = hashlib.sha256(b"".join(s.tobytes() for s in surfaces)).hexdigest()
                fit_singles(case, dataset, truth)
                if setting == "S2":
                    for what, (method, k) in NULL_SPACE_FITS.items():
                        blocks.clear()
                        captured.clear()
                        try:
                            estimators.fit_method(dataset, method, k=k)
                            # a one-surface family builds no projection: its one block is the basis
                            results[(case, what)] = list(blocks) or [captured[-1][1]]
                        except (DeconfoundError, np.linalg.LinAlgError) as err:
                            results[(case, what)] = type(err).__name__
                if setting != "S1":
                    for what in LONG_CHAINS:
                        captured.clear()
                        try:
                            estimators.fit_method(dataset, what.split()[0], k=3, n_iter=LONG_N_ITER)
                            results[(case, what)] = captured[-1]
                        except (DeconfoundError, np.linalg.LinAlgError) as err:
                            results[(case, what)] = type(err).__name__
                for policy in ("known", "selected"):
                    grid = bench.ExperimentGrid(
                        base=config, sweep_param="eta_dep", sweep_values=(config.eta_dep,),
                        replicates=1, methods=METHODS, k_policy=policy, n_star=N_STAR,
                    )
                    results[(case, f"bundle {policy}")] = run(lambda: bench.run_grid(grid), bundle_rows)
                cv_methods = [method for method in METHODS if method != "oracle"]
                results[(case, "cv 3-fold")] = run(
                    lambda: bench.cross_validate(dataset, 3, cv_methods, k=3), cv_rows
                )
    with open(out_path, "wb") as fh:
        pickle.dump(results, fh)


def _fit_tree(src: str, scratch: str, tag: str) -> dict:
    out_path = os.path.join(scratch, f"{tag}.pkl")
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--run-tree", src, out_path],
        check=True,
        env={**os.environ, **ONE_THREAD},
    )
    print(f"{tag}: {src} ({time.perf_counter() - start:.1f} s)")
    with open(out_path, "rb") as fh:
        return pickle.load(fh)


def _sin_theta(U: np.ndarray, V: np.ndarray) -> float:
    if np.array_equal(U, V):
        return 0.0  # the residual below reads ~1e-15 of rounding even for identical bases
    if V.shape[1] > U.shape[1]:
        U, V = V, U
    return float(np.linalg.norm(V - U @ (U.T @ V)))


def _outcome(result) -> str:
    """The error class name of a failed fit, or 'ok'."""
    return result if isinstance(result, str) else "ok"


def compare(parent: dict, change: dict) -> int:
    worst_basis, worst_theta, worst_pmse = (0.0, "-"), (0.0, "-"), (0.0, "-")
    changed_k, changed_fits, n_selections, n_fits, n_runs, n_long, n_splits, n_stats, n_pmse = [], [], 0, 0, 0, 0, 0, 0, 0
    changed_surfaces, n_surfaces = [], 0
    changed_errors, n_failing = [], 0

    def compare_basis(u_old, u_new, where: str) -> bool:
        nonlocal worst_basis
        if u_old.shape != u_new.shape:
            changed_fits.append(f"{where}: basis shape {u_old.shape} -> {u_new.shape}")
            return False
        basis = _sin_theta(u_old, u_new) if u_old.shape[1] else 0.0
        if basis > worst_basis[0]:
            worst_basis = (basis, where)
        return True

    def compare_fit(old, new, where: str) -> None:
        nonlocal worst_theta
        (theta_old, u_old), (theta_new, u_new) = old, new
        if not compare_basis(u_old, u_new, where):
            return
        rel = float(np.linalg.norm(theta_new - theta_old) / np.linalg.norm(theta_old))
        if rel > worst_theta[0]:
            worst_theta = (rel, where)

    for key, old in parent.items():
        new = change[key]
        case, what = key
        if case.startswith("failing/"):
            n_failing += 1
            n_fits += 1
            if (old == "ok") != (new == "ok"):
                changed_fits.append(f"{case} {what}: {old} -> {new}")
            elif old != new:
                changed_errors.append(f"{case} {what}: {': '.join(old)} -> {': '.join(new)}")
        elif what == "data":
            if not all(np.array_equal(a, b) for a, b in zip(old, new)):
                print(f"{case}: the two trees draw different datasets; results are not comparable\nFAIL")
                return 1
        elif what == "test split":
            n_splits += 1
            if old != new:
                print(f"{case}: the two trees draw different test splits; results are not comparable\nFAIL")
                return 1
        elif what == SPLIT_STATS:
            n_stats += 1
            if old != new:
                print(f"{case}: the two trees stream different split statistics; results are not comparable\nFAIL")
                return 1
        elif what == SURFACES:
            n_surfaces += 1
            if old != new:
                changed_surfaces.append(case)
        elif what in SELECTORS:
            n_selections += 1
            if old != new:
                changed_k.append(f"{case} {what}: {old} -> {new}")
        elif what in RUNS:
            n_runs += 1
            if _outcome(old) != "ok" or _outcome(new) != "ok":
                if old != new:
                    changed_fits.append(f"{case} {what}: {_outcome(old)} -> {_outcome(new)}")
                continue
            (rows_old, fits_old), (rows_new, fits_new) = old, new
            n_selections += len(rows_old)
            n_fits += len(rows_old)
            if [r[0] for r in rows_old] != [r[0] for r in rows_new] or len(fits_old) != len(fits_new):
                changed_fits.append(f"{case} {what}: {len(fits_old)} fits -> {len(fits_new)}")
                continue
            for (label, k_old, err_old, pmse_old), (_, k_new, err_new, pmse_new) in zip(rows_old, rows_new):
                if k_old != k_new:
                    changed_k.append(f"{case} {what} {label}: K {k_old} -> {k_new}")
                if err_old != err_new:
                    changed_fits.append(f"{case} {what} {label}: {err_old or 'ok'} -> {err_new or 'ok'}")
                elif pmse_old is not None:
                    n_pmse += 1
                    delta = 0.0 if pmse_old == pmse_new else abs(pmse_new - pmse_old)
                    if not delta <= worst_pmse[0]:
                        worst_pmse = (delta, f"{case} {what} {label}")
            for i, (fit_old, fit_new) in enumerate(zip(fits_old, fits_new)):
                compare_fit(fit_old, fit_new, f"{case} {what} fit {i}")
        elif what in NULL_SPACE_FITS:
            n_fits += 1
            if _outcome(old) != _outcome(new):
                changed_fits.append(f"{case} {what}: {_outcome(old)} -> {_outcome(new)}")
            elif _outcome(old) == "ok":
                for i, (u_old, u_new) in enumerate(zip(old, new)):
                    compare_basis(u_old, u_new, f"{case} {what} {i}")
        else:
            n_fits += 1
            n_long += what in LONG_CHAINS
            if _outcome(old) != _outcome(new):
                changed_fits.append(f"{case} {what}: {_outcome(old)} -> {_outcome(new)}")
            if _outcome(old) == "ok" and _outcome(new) == "ok":
                compare_fit(old, new, f"{case} {what}")
    print(f"max basis sin-theta: {worst_basis[0]:.2e} (bound {BASIS_BOUND:.0e}) at {worst_basis[1]}")
    print(f"max theta relative error: {worst_theta[0]:.2e} (bound {THETA_BOUND:.0e}) at {worst_theta[1]}")
    print(f"test splits compared bitwise: {n_splits}, all identical ({N_STAR} rows per dataset)")
    print(f"split statistics compared bitwise: {n_stats}, all identical (gram, cross, noise_ss per dataset)")
    print(f"step-3 surfaces matching: {n_surfaces - len(changed_surfaces)} of {n_surfaces} (by digest, not gated)")
    for case in changed_surfaces:
        print(f"  {case}: step-3 surfaces differ")
    print(f"max pmse_log change: {worst_pmse[0]:.2e} over {n_pmse} run records at {worst_pmse[1]}")
    print(f"bench runs compared: {n_runs} ({', '.join(RUNS)} per dataset)")
    print(f"long HeteroPCA chains compared: {n_long} ({', '.join(LONG_CHAINS)} per S2 and stress dataset)")
    print(f"failing-input errors changed: {len(changed_errors)} of {n_failing} fits (not gated)")
    for line in changed_errors:
        print(f"  {line}")
    print(f"K selections changed: {len(changed_k)} of {n_selections} (selector calls and K in run records)")
    print(f"fit outcomes changed: {len(changed_fits)} of {n_fits} (single fits and run records)")
    for line in changed_k + changed_fits:
        print(f"  {line}")
    ok = worst_basis[0] <= BASIS_BOUND and worst_theta[0] <= THETA_BOUND and not changed_k and not changed_fits
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--run-tree":
        run_tree(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        parent = _fit_tree(argv[0], scratch, "parent")
        change = _fit_tree(argv[1], scratch, "change")
    return compare(parent, change)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
