"""Acceptance suite: one test per criterion, each printing a PASS line.

The quantitative criteria run the replicate benchmark at reduced but
statistically decisive sizes on frozen seed families; see the module
tests for the fast per-operation checks.
"""

import itertools

import numpy as np
from conftest import assert_projector_properties, normal_equations, random_orthonormal, read_surfaces

from deconfound.bench import ExperimentGrid, replicate_seed, run_grid, run_k_selection
from deconfound.cli import main
from deconfound.estimators import fit_method, oracle_basis
from deconfound.model import (
    GroundTruth,
    ProjectionBasis,
    SimulationConfig,
)
from deconfound.regress import (
    expand_interactions,
    fit_first_stage,
    fit_projected_ols,
)
from deconfound.simulate import _draw_noise, ar_covariance, generate
from deconfound.spectral import build_projection, hetero_pca, sin_theta, top_k_eigenvectors

WORKERS = 2


def _report(num, detail):
    print(f"ACCEPTANCE criterion {num}: PASS - {detail}")


def test_criterion_01_oracle_annihilation():
    rng = np.random.default_rng(101)
    worst = 0.0
    cases = list(itertools.product((1, 2), (1, 3), (10, 50)))
    for i in range(20):
        p, k, m = cases[i % len(cases)]
        truth = GroundTruth(
            A=rng.standard_normal((p, m)),
            B=rng.standard_normal((k, m)),
            C=tuple(rng.standard_normal((k, m)) for _ in range(p)),
            psi=rng.standard_normal((p, k)),
            sigma_w=1.0,
            tau2=np.ones(m),
        )
        basis = oracle_basis(truth)
        stacked = truth.stacked_hidden_effects()
        residual = stacked.T - basis.projector() @ stacked.T
        worst = max(worst, float(np.linalg.norm(residual)))
    assert worst < 1e-10
    _report(1, f"20 truths, max ||(I-P)D^T||_F = {worst:.2e} < 1e-10")


def test_criterion_02_brute_force_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(20):
        p = int(rng.integers(1, 3))
        m = int(rng.integers(4, 11))
        n = int(rng.integers(30, 51))
        k = 1
        cfg = SimulationConfig(n=n, m=m, p=p, k=k, seed=int(rng.integers(0, 2**32)))
        ds, truth = generate(cfg)

        # stage 1: interaction regression
        first = fit_first_stage(ds)
        design = expand_interactions(ds.X)
        direct = normal_equations(design, ds.Y)
        worst = max(worst, float(np.max(np.abs(np.vstack([first.L1, first.L2]) - direct))))

        # stage 3: covariance regression, the intercept and (j, j) coefficients the estimators read
        eps = first.residuals
        surfaces = read_surfaces(eps, ds.X)
        cov_design = np.column_stack([np.ones(n), design])
        pairs = [(j, kk) for j in range(p) for kk in range(j, p)]
        columns = [0] + [1 + p + pairs.index((j, j)) for j in range(p)]
        for r in range(m):
            for s in range(m):
                beta = normal_equations(cov_design, (eps[:, r] * eps[:, s])[:, None])[:, 0]
                for column, surface in zip(columns, surfaces):
                    worst = max(worst, abs(beta[column] - surface[r, s]))

        # stage 5: projected least squares
        basis = oracle_basis(truth)
        est = fit_projected_ols(ds, basis)
        direct = normal_equations(ds.X, basis.apply_complement(ds.Y))
        worst = max(worst, float(np.max(np.abs(est.theta - direct))))
    assert worst < 1e-8
    _report(2, f"20 instances, max |stage - normal equations| = {worst:.2e} < 1e-8")


def test_criterion_03_projector_properties():
    rng = np.random.default_rng(303)
    bases = [ProjectionBasis.empty(7)]
    for m, widths in ((12, (2, 2)), (20, (3, 3, 3)), (9, (1, 4))):
        blocks = [random_orthonormal(rng, m, w) for w in widths]
        bases.append(build_projection(blocks))
    cfg = SimulationConfig(n=120, m=12, p=2, k=2, seed=17)
    ds, truth = generate(cfg)
    bases.append(oracle_basis(truth))
    phi_b, *phi_c = read_surfaces(fit_first_stage(ds).residuals, ds.X)
    blocks = [top_k_eigenvectors(phi_b, 2)[0]]
    blocks += [top_k_eigenvectors(phi_c[j], 2)[0] for j in range(2)]
    bases.append(build_projection(blocks))
    bases.append(ProjectionBasis(U=hetero_pca(phi_b, 2, 5)))
    for basis in bases:
        assert_projector_properties(basis, tol=1e-8)
    _report(3, f"{len(bases)} bases from all construction routes satisfy P^2=P, P^T=P, tr(P)=r")


def test_criterion_04_figure1_ordering_homoscedastic_setting2():
    grid = ExperimentGrid(
        base=SimulationConfig(n=100, m=500, p=2, k=3, noise="homoscedastic", seed=20260811),
        sweep_param="eta_dep",
        sweep_values=(0.5, 0.9, 1.3),
        replicates=50,
        methods=("oracle", "interaction_homo", "non_interaction_homo", "ols"),
    )
    report = run_grid(grid, workers=WORKERS)
    assert report.failure_count() == 0
    lines = []
    for value in grid.sweep_values:
        means = {m: report.mean_sse_log(value, m) for m in grid.methods}
        assert means["interaction_homo"] < means["non_interaction_homo"], value
        assert means["non_interaction_homo"] < means["ols"], value
        assert means["oracle"] <= means["interaction_homo"], value
        lines.append(
            f"eta={value}: oracle={means['oracle']:.2f} <= int={means['interaction_homo']:.2f}"
            f" < non-int={means['non_interaction_homo']:.2f} < ols={means['ols']:.2f}"
        )
    _report(4, "; ".join(lines))


def test_criterion_05_figure1_heteroscedastic_setting1():
    grid = ExperimentGrid(
        base=SimulationConfig(
            n=1000, m=25, p=2, k=3, eta_dep=0.5, noise="heteroscedastic", seed=20260811
        ),
        sweep_param="alpha",
        sweep_values=(6.0, 12.0),
        replicates=50,
        methods=("interaction_homo", "interaction_hetero"),
        n_iter=5,
    )
    report = run_grid(grid, workers=WORKERS)
    assert report.failure_count() == 0
    lines = []
    for value in grid.sweep_values:
        hetero = report.mean_sse_log(value, "interaction_hetero")
        homo = report.mean_sse_log(value, "interaction_homo")
        assert hetero < homo, value
        lines.append(f"alpha={value}: hetero={hetero:.3f} < homo={homo:.3f}")
    _report(5, "; ".join(lines))


def test_criterion_06_rate_check():
    # eta_dep and sigma_w are free parameters of this criterion; they are set
    # so the 1/n stochastic term dominates the n-independent approximation
    # floor (see the decisions ledger for the calibration analysis)
    def mean_sse(n):
        vals = []
        for r in range(100):
            seed = replicate_seed(731, "n", float(n), r)
            cfg = SimulationConfig(n=n, m=500, p=1, k=2, eta_dep=3.0, sigma_w=0.4, seed=seed)
            ds, truth = generate(cfg)
            est = fit_method(ds, "interaction_homo", k=2)
            vals.append(np.sum((est.theta - truth.A) ** 2) / truth.m)
        return float(np.mean(vals))

    sse_400 = mean_sse(400)
    sse_800 = mean_sse(800)
    ratio = sse_400 / sse_800
    assert 1.4 <= ratio <= 2.8
    _report(6, f"mean SSE(n=400)/mean SSE(n=800) = {ratio:.3f} in [1.4, 2.8]")


def test_criterion_07_k_selection():
    # alpha = 0 runs through the heteroscedastic machinery (uniform noise
    # variance p+1), the profile the selection experiment fixes
    base = SimulationConfig(
        n=1000, m=500, p=2, k=3, eta_dep=0.5, alpha=0.0, sigma_w=1.0,
        noise="heteroscedastic", seed=99,
    )
    report = run_k_selection(base, [1.5], k_star=10, replicates=30, workers=WORKERS)
    hits = report.distribution(1.5, "interaction").get(3, 0)
    assert hits >= 27  # >= 90% of 30 replicates
    non_int_mode = report.mode(1.5, "non_interaction")
    assert non_int_mode is not None and non_int_mode > 3  # upward bias
    _report(7, f"interaction selector: K=3 in {hits}/30; non-interaction mode {non_int_mode} > 3")


def test_criterion_08_heteropca_exactness():
    rng = np.random.default_rng(88)
    m, k = 50, 3
    pca_worse = 0
    worst_sin = 0.0
    for _ in range(10):
        u = random_orthonormal(rng, m, k)
        lam = np.sort(rng.uniform(5.0, 15.0, k))[::-1]  # eigengap >= 1 from zero
        s = u @ np.diag(lam) @ u.T + np.diag(rng.uniform(0.0, 10.0, m))
        u_hp = hetero_pca(s, k, 50)
        u_pca, _ = top_k_eigenvectors(s, k)
        s_hp = sin_theta(u_hp, u)
        worst_sin = max(worst_sin, s_hp)
        if sin_theta(u_pca, u) > s_hp:
            pca_worse += 1
    assert worst_sin < 1e-3
    assert pca_worse >= 8
    _report(8, f"max sin-theta {worst_sin:.2e} < 1e-3; plain PCA worse on {pca_worse}/10")


def test_criterion_09_simulation_moments():
    # covariance of the design
    cfg = SimulationConfig(n=100000, m=10, p=3, k=2, seed=909)
    ds, _ = generate(cfg)
    emp = ds.X.T @ ds.X / cfg.n
    dev = float(np.max(np.abs(emp - ar_covariance(3))))
    assert dev < 0.02

    # heteroscedastic noise profile, measured on the same substream the
    # generator consumes
    cfg2 = SimulationConfig(
        n=100000, m=20, p=2, k=2, noise="heteroscedastic", alpha=9.0, seed=909
    )
    _, truth2 = generate(cfg2)
    noise = _draw_noise(cfg2, truth2.tau2, cfg2.n, "E")
    rel = np.max(np.abs(noise.var(axis=0) / truth2.tau2 - 1.0))
    assert rel < 0.10
    _report(9, f"max |Cov(X)-Sigma| = {dev:.4f} < 0.02; worst tau^2 rel dev = {rel:.4f} < 0.10")


def test_criterion_10_cli_determinism(tmp_path):
    runs = {
        "simulate": lambda out: main(
            ["simulate", "--n", "40", "--m", "10", "--p", "2", "--k", "2",
             "--seed", "11", "--out", str(out)]
        ),
        "benchmark": lambda out: main(
            ["benchmark", "--setting", "1", "--sweep", "eta_dep=0.5", "--replicates", "1",
             "--seed", "11", "--methods", "ols,interaction_homo", "--out", str(out)]
        ),
        "select-k": lambda out: main(
            ["select-k", "--sigma-w", "1.5", "--k-star", "2", "--replicates", "2",
             "--seed", "11", "--out", str(out)]
        ),
    }
    for name, runner in runs.items():
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        assert runner(a) == 0 and runner(b) == 0
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for f in files:
            assert (a / f).read_bytes() == (b / f).read_bytes(), (name, f)

    data = tmp_path / "simulate-a"
    fit_args = ["fit", "--x", str(data / "X.csv"), "--y", str(data / "Y.csv"),
                "--method", "interaction_homo", "--k", "2"]
    assert main(fit_args + ["--out", str(tmp_path / "t1.csv")]) == 0
    assert main(fit_args + ["--out", str(tmp_path / "t2.csv")]) == 0
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()

    cv_args = ["cv", "--x", str(data / "X.csv"), "--y", str(data / "Y.csv"),
               "--folds", "4", "--methods", "ols,non_interaction_homo", "--k", "2",
               "--seed", "11"]
    assert main(cv_args + ["--out", str(tmp_path / "cv1.json")]) == 0
    assert main(cv_args + ["--out", str(tmp_path / "cv2.json")]) == 0
    assert (tmp_path / "cv1.json").read_bytes() == (tmp_path / "cv2.json").read_bytes()
    _report(10, "simulate/benchmark/select-k/fit/cv outputs byte-identical on re-run")
