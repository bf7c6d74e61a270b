import gc
import itertools
from contextlib import closing
import re
import warnings
import weakref

import numpy as np
import pytest
from conftest import normal_equations, read_surfaces

from deconfound.errors import (
    DataError,
    DimensionMismatchError,
    NonFiniteError,
    NumericalError,
    RankDeficientError,
)
from deconfound.estimators import Stage, fit_method, oracle_basis
from deconfound import bench, estimators, regress, spectral
from deconfound.bench import ExperimentGrid, run_grid, select_k_hat, sse_log
from deconfound.model import (
    METHODS,
    ORTHONORMAL_TOL,
    Dataset,
    GroundTruth,
    ProjectionBasis,
    SimulationConfig,
)
from deconfound.regress import fit_first_stage, fit_projected_ols
from deconfound.simulate import ar_covariance, generate
from deconfound.spectral import (
    build_projection,
    eigen_spectrum,
    hetero_pca,
    sin_theta,
    top_k_eigenvectors,
)


K_READING_METHODS = ("interaction_homo", "interaction_hetero", "non_interaction_homo", "non_interaction_hetero")


@pytest.fixture(scope="module")
def stress_dataset():
    """The stress point m=500, n=1000, where every K=3 top-k block is above the block iteration's size rule."""
    return generate(SimulationConfig(n=1000, m=500, p=2, k=3, seed=25))[0]


def _spectra(ds, family):
    """The family's selector spectra, from a stage of their own."""
    with closing(Stage(ds)) as stage:
        return stage.spectra(family)


def _noiseless_linear(rng, n=50, p=2, m=6):
    a = rng.standard_normal((p, m))
    x = rng.standard_normal((n, p))
    return Dataset(X=x, Y=x @ a), a


class TestOLSBaseline:
    def test_noiseless_recovery(self):
        ds, a = _noiseless_linear(np.random.default_rng(0))
        est = fit_method(ds, "ols")
        assert np.max(np.abs(est.theta - a)) < 1e-8
        assert est.method == "ols" and est.k_used is None

    def test_equals_projected_ols_with_empty_basis(self):
        rng = np.random.default_rng(1)
        ds = Dataset(X=rng.standard_normal((30, 2)), Y=rng.standard_normal((30, 4)))
        est = fit_method(ds, "ols")
        via_projection = fit_projected_ols(ds, ProjectionBasis.empty(4))
        assert np.max(np.abs(est.theta - via_projection.theta)) < 1e-12


class TestOracle:
    def test_annihilates_hidden_effects(self):
        cfg = SimulationConfig(n=50, m=20, p=2, k=3, seed=3)
        ds, truth = generate(cfg)
        est = fit_method(ds, "oracle", truth=truth)
        assert est.method == "oracle" and est.k_used == 3
        stacked = truth.stacked_hidden_effects()
        u, _, _ = np.linalg.svd(stacked.T, full_matrices=False)
        proj = u @ u.T
        assert np.linalg.norm(stacked.T - proj @ stacked.T) < 1e-10

    def test_basis_is_bitwise_the_sign_fixed_svd_basis(self):
        # oracle_basis goes through build_projection; its U is the SVD + fix_signs basis it replaced
        truths = [
            generate(SimulationConfig(n=n, m=m, p=2, k=3, seed=seed))[1]
            for m, n in ((25, 1000), (500, 100), (10, 50))
            for seed in range(10)
        ]
        rng = np.random.default_rng(101)
        for p, k, m in itertools.product((1, 2), (1, 3), (10, 50)):
            truths.append(
                GroundTruth(
                    A=rng.standard_normal((p, m)),
                    B=rng.standard_normal((k, m)),
                    C=tuple(rng.standard_normal((k, m)) for _ in range(p)),
                    psi=rng.standard_normal((p, k)),
                    sigma_w=1.0,
                    tau2=np.ones(m),
                )
            )
        for truth in truths:
            u, _, _ = np.linalg.svd(truth.stacked_hidden_effects().T, full_matrices=False)
            assert np.array_equal(oracle_basis(truth).U, spectral.fix_signs(u))

    def test_dimension_mismatch(self):
        cfg = SimulationConfig(n=50, m=20, p=2, k=3, seed=4)
        ds, truth = generate(cfg)
        other_cfg = SimulationConfig(n=50, m=24, p=2, k=3, seed=4)
        _, other_truth = generate(other_cfg)
        with pytest.raises(DimensionMismatchError):
            fit_method(ds, "oracle", truth=other_truth)

    def test_truth_constructor_rejects_mismatched_hidden_rows(self):
        rng = np.random.default_rng(5)
        with pytest.raises(DimensionMismatchError):
            GroundTruth(
                A=rng.standard_normal((1, 10)),
                B=rng.standard_normal((2, 10)),
                C=(rng.standard_normal((3, 10)),),
                psi=rng.standard_normal((1, 2)),
                sigma_w=1.0,
                tau2=np.ones(10),
            )


class TestInteractionPipelines:
    def test_rank_budget_checked_first(self):
        rng = np.random.default_rng(6)
        ds = Dataset(X=rng.standard_normal((100, 2)), Y=rng.standard_normal((100, 25)))
        with pytest.raises(NumericalError, match="exceeds m"):
            fit_method(ds, "interaction_homo", k=400)
        with pytest.raises(NumericalError):
            fit_method(ds, "interaction_hetero", k=400, n_iter=5)

    def test_k_must_be_positive(self):
        rng = np.random.default_rng(7)
        ds = Dataset(X=rng.standard_normal((100, 2)), Y=rng.standard_normal((100, 25)))
        with pytest.raises(NumericalError):
            fit_method(ds, "interaction_homo", k=0)
        with pytest.raises(NumericalError):
            fit_method(ds, "non_interaction_homo", k=0)

    def test_stage_tagged_errors(self):
        # n large enough for stage 1 (n > 5) but not stage 3 (needs n > 6)
        rng = np.random.default_rng(8)
        ds = Dataset(X=rng.standard_normal((6, 2)), Y=rng.standard_normal((6, 25)))
        with pytest.raises(NumericalError, match=r"step 3 \(covariance regression\)"):
            fit_method(ds, "interaction_homo", k=3)

    def test_deterministic(self):
        cfg = SimulationConfig(n=120, m=12, p=2, k=2, seed=9)
        ds, _ = generate(cfg)
        a = fit_method(ds, "interaction_homo", k=2)
        b = fit_method(ds, "interaction_homo", k=2)
        assert np.array_equal(a.theta, b.theta)
        c = fit_method(ds, "interaction_hetero", k=2, n_iter=5)
        d = fit_method(ds, "interaction_hetero", k=2, n_iter=5)
        assert np.array_equal(c.theta, d.theta)

    def test_matches_manual_stage_chain(self):
        # p = 3 reads the diagonal pairs (0, 0), (1, 1), (2, 2) from among six
        for p in (2, 3):
            cfg = SimulationConfig(n=150, m=10, p=p, k=2, seed=10)
            ds, _ = generate(cfg)
            est = fit_method(ds, "interaction_homo", k=2)
            phi_b, *phi_c = read_surfaces(fit_first_stage(ds).residuals, ds.X)
            blocks = [top_k_eigenvectors(phi_b, 2)[0]]
            blocks += [top_k_eigenvectors(phi_c[j], 2)[0] for j in range(p)]
            basis = build_projection(blocks)
            manual = fit_projected_ols(ds, basis)
            assert np.max(np.abs(est.theta - manual.theta)) < 1e-12
            assert est.method == "interaction_homo" and est.k_used == 2

    def test_hetero_uses_heteropca_for_b_block(self):
        for p in (2, 3):
            cfg = SimulationConfig(n=150, m=10, p=p, k=2, seed=11)
            ds, _ = generate(cfg)
            est = fit_method(ds, "interaction_hetero", k=2, n_iter=7)
            phi_b, *phi_c = read_surfaces(fit_first_stage(ds).residuals, ds.X)
            blocks = [hetero_pca(phi_b, 2, 7)]
            blocks += [top_k_eigenvectors(phi_c[j], 2)[0] for j in range(p)]
            manual = fit_projected_ols(ds, build_projection(blocks))
            assert np.max(np.abs(est.theta - manual.theta)) < 1e-12
            assert est.method == "interaction_hetero" and est.t_used == 7

    def test_builds_only_the_read_surfaces(self, monkeypatch):
        # the estimator path builds phi_B and the p phi_C(j), none of the other step-3 surfaces
        built = []
        contract = regress._contract_outer_products

        def counting_contract(*args):
            built.append(args)
            return contract(*args)

        monkeypatch.setattr(regress, "_contract_outer_products", counting_contract)
        ds, _ = generate(SimulationConfig(n=150, m=10, p=3, k=2, seed=12))
        for method in ("interaction_homo", "interaction_hetero"):
            built.clear()
            fit_method(ds, method, k=2)
            assert len(built) == 4
        built.clear()
        select_k_hat(ds, "interaction", 3)
        assert len(built) == 4

    def test_steps_1_to_3_run_once_per_dataset(self, monkeypatch):
        # one bundle of all six methods with K selected: both selectors and
        # the four estimators share one first stage, one set of p+1
        # surfaces, one linear fit, one mean outer product and one top-k block per phi_C(j)
        calls = {"first_stage": 0, "surfaces": 0, "linear": 0, "mean": 0}
        decomposed = []

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        rule = estimators.Stage._rule

        def counted_rule(stage, family, eps, which):
            calls["mean"] += family == "non_interaction"
            return rule(stage, family, eps, which)

        top_k = spectral.top_k_eigenvectors

        def recording_top_k(matrix, *args):
            decomposed.append(matrix)
            return top_k(matrix, *args)

        monkeypatch.setattr(regress, "fit_first_stage", counted("first_stage", regress.fit_first_stage))
        monkeypatch.setattr(regress, "_contract_outer_products", counted("surfaces", regress._contract_outer_products))
        monkeypatch.setattr(estimators, "_linear_residuals", counted("linear", estimators._linear_residuals))
        monkeypatch.setattr(estimators.Stage, "_rule", counted_rule)
        monkeypatch.setattr(spectral, "top_k_eigenvectors", recording_top_k)
        grid = ExperimentGrid(
            base=SimulationConfig(n=300, m=10, p=2, k=2, sigma_w=1.5, seed=5),
            sweep_param="eta_dep", sweep_values=(0.5,), replicates=1,
            methods=METHODS, k_policy="selected", k_star=2, n_star=50,
        )
        report = run_grid(grid)
        assert report.failure_count() == 0
        assert calls == {"first_stage": 1, "surfaces": 3, "linear": 1, "mean": 1}
        # phi_B and both phi_C(j) for interaction_homo, phi_B_mean for
        # non_interaction_homo; interaction_hetero reuses the phi_C(j) blocks
        assert len(decomposed) == len({id(matrix) for matrix in decomposed}) == 4
        monkeypatch.undo()
        ds, truth = generate(grid.config_for(0.5, 0))
        outcomes = bench._run_dataset(ds, METHODS, k=None, k_star=2, n_iter=5, truth=truth)
        for method, (est, k_used), rec in zip(METHODS, outcomes, report.records):
            alone = fit_method(ds, method, k=k_used, truth=truth)
            assert np.array_equal(est.theta, alone.theta)
            assert rec.sse_log == sse_log(alone.theta, truth.A)

    def test_kept_errors_release_the_surfaces(self, monkeypatch):
        # a caller may keep an error (the benchmark keeps refused selections);
        # it must not keep the p+1 m x m surfaces alive through its traceback
        refs = []
        diagonal = regress.fit_diagonal_surfaces

        def tracked(*args):
            surfaces = diagonal(*args)
            refs.extend(weakref.ref(s) for s in surfaces)
            return surfaces

        monkeypatch.setattr(regress, "fit_diagonal_surfaces", tracked)
        ds, _ = generate(SimulationConfig(n=100, m=40, p=2, k=3, seed=2))
        gc.disable()
        try:
            with pytest.raises(NumericalError) as info:
                select_k_hat(ds, "interaction", 20)
            outcomes = bench._run_dataset(ds, ["interaction_homo"], k=None, k_star=20, n_iter=5)
            assert len(refs) == 6 and all(ref() is None for ref in refs)
        finally:
            gc.enable()
        assert info.value is not None
        assert str(outcomes[0][0]).startswith("selection failed: ") and outcomes[0][1] is None

    def test_homo_hetero_b_blocks_agree_on_homoscedastic_data(self):
        # with homoscedastic noise the covariance shift is ~sigma^2 I, which
        # moves eigenvalues but not the leading eigenspace
        cfg = SimulationConfig(n=2000, m=25, p=2, k=3, eta_dep=0.5, seed=5)
        ds, _ = generate(cfg)
        phi_b = read_surfaces(fit_first_stage(ds).residuals, ds.X)[0]
        u_pca, _ = top_k_eigenvectors(phi_b, 3)
        u_hp = hetero_pca(phi_b, 3, 50)
        assert sin_theta(u_pca, u_hp) < 0.05

    def test_small_instance_normal_equations_equivalence(self):
        # every pipeline ends in a least-squares solve of the projected
        # responses on X; rebuild each method's projected target and compare
        # against the explicit normal-equations oracle
        cfg = SimulationConfig(n=40, m=9, p=2, k=1, seed=13)
        ds, truth = generate(cfg)
        phi_b, *phi_c = read_surfaces(fit_first_stage(ds).residuals, ds.X)
        theta_lin = normal_equations(ds.X, ds.Y)
        phi_mean = ((ds.Y - ds.X @ theta_lin).T @ (ds.Y - ds.X @ theta_lin)) / ds.n
        c_blocks = [top_k_eigenvectors(phi_c[j], 1)[0] for j in range(2)]
        bases = {
            "ols": ProjectionBasis.empty(ds.m),
            "oracle": None,
            "interaction_homo": build_projection([top_k_eigenvectors(phi_b, 1)[0]] + c_blocks),
            "interaction_hetero": build_projection([hetero_pca(phi_b, 1, 3)] + c_blocks),
            "non_interaction_homo": ProjectionBasis(U=top_k_eigenvectors(phi_mean, 1)[0]),
            "non_interaction_hetero": ProjectionBasis(U=hetero_pca(phi_mean, 1, 3)),
        }
        u, _, _ = np.linalg.svd(truth.stacked_hidden_effects().T, full_matrices=False)
        for method, basis in bases.items():
            est = fit_method(ds, method, k=1, n_iter=3, truth=truth)
            if method == "oracle":
                target = ds.Y - (ds.Y @ u) @ u.T
            else:
                target = basis.apply_complement(ds.Y)
            direct = normal_equations(ds.X, target)
            assert np.max(np.abs(est.theta - direct)) < 1e-8


class TestNoConfoundingReduction:
    def test_no_hidden_effects(self):
        # With B = C = 0 the OLS baseline recovers A; the interaction pipeline
        # still projects out (p+1)K directions, so its estimate equals the OLS
        # estimate pushed through its own learned complement (an exact
        # identity by linearity of least squares).
        rng = np.random.default_rng(14)
        n, p, m, k = 5000, 2, 25, 3
        a = 0.5 + np.sqrt(0.1) * rng.standard_normal((p, m))
        x = rng.standard_normal((n, p)) @ np.linalg.cholesky(ar_covariance(p)).T
        y = x @ a + rng.standard_normal((n, m))
        ds = Dataset(X=x, Y=y)
        ols = fit_method(ds, "ols")
        assert np.linalg.norm(ols.theta - a) / np.linalg.norm(a) < 0.05
        est = fit_method(ds, "interaction_homo", k=k)
        phi_b, *phi_c = read_surfaces(fit_first_stage(ds).residuals, ds.X)
        blocks = [top_k_eigenvectors(phi_b, k)[0]]
        blocks += [top_k_eigenvectors(phi_c[j], k)[0] for j in range(p)]
        basis = build_projection(blocks)
        projected_ols = ols.theta @ (np.eye(m) - basis.projector())
        assert np.max(np.abs(est.theta - projected_ols)) < 1e-8


class TestNonInteraction:
    def test_variant_validation(self):
        # the variant is the tag's suffix: only homo and hetero exist, on both entry points
        rng = np.random.default_rng(15)
        ds = Dataset(X=rng.standard_normal((50, 2)), Y=rng.standard_normal((50, 8)))
        with pytest.raises(DataError, match="unknown method tag 'non_interaction_robust'"):
            fit_method(ds, "non_interaction_robust", k=2)
        with closing(Stage(ds)) as stage, pytest.raises(DataError, match="unknown method tag 'non_interaction_robust'"):
            stage.fit("non_interaction_robust", k=2)

    def test_matches_manual_chain(self):
        cfg = SimulationConfig(n=100, m=10, p=2, k=2, seed=16)
        ds, _ = generate(cfg)
        est = fit_method(ds, "non_interaction_homo", k=2)
        theta_lin = normal_equations(ds.X, ds.Y)
        eps = ds.Y - ds.X @ theta_lin
        phi_b = (eps.T @ eps) / ds.n
        u, _ = top_k_eigenvectors(phi_b, 2)
        manual = fit_projected_ols(ds, ProjectionBasis(U=u))
        assert np.max(np.abs(est.theta - manual.theta)) < 1e-8
        assert est.method == "non_interaction_homo"

    @pytest.mark.parametrize("n, m", [(30, 40), (60, 10)])
    def test_rank_deficient_x_fails_at_each_familys_step_1(self, n, m):
        # two equal columns: both step-1 designs are rank deficient, at n < m and at n >= m;
        # ols and oracle read no step 1 and fail in step 5's design
        rng = np.random.default_rng(25)
        x = rng.standard_normal((n, 1))
        ds = Dataset(X=np.hstack([x, x]), Y=rng.standard_normal((n, m)))
        _, truth = generate(SimulationConfig(n=n, m=m, p=2, k=2, seed=25))
        labels = {
            "ols": "step 5 (projected least squares)",
            "oracle": "step 5 (projected least squares)",
            "interaction_homo": "step 1 (interaction regression)",
            "interaction_hetero": "step 1 (interaction regression)",
            "non_interaction_homo": "step 1 (linear regression)",
            "non_interaction_hetero": "step 1 (linear regression)",
        }
        for k, prefix in ((2, ""), (None, "selection failed: ")):
            outcomes = bench._run_dataset(ds, list(labels), k=k, k_star=None, n_iter=5, truth=truth)
            for (method, label), (err, k_used) in zip(labels.items(), outcomes):
                reads_k = method not in ("ols", "oracle")
                assert isinstance(err, RankDeficientError) and k_used == (k if reads_k else None)
                assert str(err).startswith(f"{prefix if reads_k else ''}{label}: design is rank deficient")

    @pytest.mark.parametrize("n, m", [(60, 8), (40, 60)])
    def test_step_5_projects_only_p_by_m_arrays(self, n, m, monkeypatch):
        # step 5 right-multiplies the p x m OLS fit by I - U U^T; no n x m response copy is projected
        ds, truth = generate(SimulationConfig(n=n, m=m, p=2, k=2, seed=26))
        shapes = []
        apply_complement = ProjectionBasis.apply_complement

        def record(basis, rows):
            shapes.append(np.shape(rows))
            return apply_complement(basis, rows)

        monkeypatch.setattr(ProjectionBasis, "apply_complement", record)
        for method in METHODS:
            shapes.clear()
            fit_method(ds, method, k=2, truth=truth)
            assert shapes == [(ds.p, ds.m)], method

    def test_every_failure_names_its_step(self):
        # equal columns, an all-zero design, and a design whose products X_j X_k overflow
        # (reported by the interaction families as step 1's NonFiniteError, without a warning)
        ds, truth = generate(SimulationConfig(n=60, m=8, p=2, k=2, seed=27))
        designs = {
            "equal columns": ds.X[:, [0, 0]],
            "zero": np.zeros_like(ds.X),
            "overflowing products": 1e160 * ds.X,
        }
        for name, x in designs.items():
            for k in (2, None):
                with np.errstate(over="ignore", invalid="ignore"):
                    outcomes = bench._run_dataset(Dataset(X=x, Y=ds.Y), METHODS, k=k, k_star=None, n_iter=5, truth=truth)
                errors = [str(est) for est, _ in outcomes if isinstance(est, Exception)]
                assert errors, name
                for err in errors:
                    assert re.match(r"(selection failed: )?step \d \(", err), (name, k, err)
        with warnings.catch_warnings(), pytest.raises(NonFiniteError) as info:
            warnings.simplefilter("error")
            fit_method(Dataset(X=1e160 * ds.X, Y=ds.Y), "interaction_homo", k=2)
        assert str(info.value) == "step 1 (interaction regression): interaction X_0 * X_0 overflows at row 0"

    def test_correct_specification_beats_overprojection_when_no_interactions(self):
        # with C = 0 both estimators converge to a projected target, but the
        # interaction method removes 2K extra noise directions of A's energy;
        # the correctly specified non-interaction fit has lower error, and
        # both beat the confounded OLS fit
        rng = np.random.default_rng(17)
        n, p, m, k = 1000, 2, 25, 3
        sse_int, sse_non, sse_ols = [], [], []
        for rep in range(10):
            rg = np.random.default_rng(1000 + rep)
            a = 0.5 + np.sqrt(0.1) * rg.standard_normal((p, m))
            b = 0.1 + rg.standard_normal((k, m))
            psi = 0.5 * (0.5 + np.sqrt(0.1) * rg.standard_normal((p, k)))
            x = rg.standard_normal((n, p)) @ np.linalg.cholesky(ar_covariance(p)).T
            z = x @ psi + rg.standard_normal((n, k))
            y = x @ a + z @ b + rg.standard_normal((n, m))
            ds = Dataset(X=x, Y=y)
            sse_int.append(np.sum((fit_method(ds, "interaction_homo", k=k).theta - a) ** 2))
            sse_non.append(np.sum((fit_method(ds, "non_interaction_homo", k=k).theta - a) ** 2))
            sse_ols.append(np.sum((fit_method(ds, "ols").theta - a) ** 2))
        assert np.mean(sse_non) < np.mean(sse_int)
        assert np.mean(sse_int) < np.mean(sse_ols)


class TestStepThreeFiniteness:
    @pytest.mark.parametrize("n, m", [(60, 8), (20, 40), (60, 240)])
    def test_overflowing_surface_fails_under_its_name(self, n, m):
        # outer products of 1e160-scale residuals overflow; at n < m they overflow in the n x n cores,
        # and at n = 60, m = 240 the residuals' product bound refuses the operator path first
        ds, _ = generate(SimulationConfig(n=n, m=m, p=2, k=1, seed=3))
        big = Dataset(X=ds.X, Y=ds.Y * 1e160)
        for method in ("interaction_homo", "interaction_hetero", "non_interaction_homo", "non_interaction_hetero"):
            name = "phi_B_mean" if method.startswith("non_") else "phi_B"
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError) as info:
                fit_method(big, method, k=1)
            assert str(info.value) == f"step 3 (covariance regression): {name} has a non-finite entry at row 0, column 0"


class TestSpectraHelpers:
    def test_interaction_spectra_shapes(self):
        for p in (2, 3):
            cfg = SimulationConfig(n=100, m=10, p=p, k=2, seed=18)
            ds, _ = generate(cfg)
            spectra = _spectra(ds, "interaction")
            assert len(spectra) == p + 1
            assert all(s.eigenvalues.size == 10 for s in spectra)
            assert spectra[0].source == "phi_B"
            surfaces = read_surfaces(fit_first_stage(ds).residuals, ds.X)
            for spectrum, surface in zip(spectra, surfaces):
                assert np.array_equal(spectrum.eigenvalues, eigen_spectrum(surface, "ref").eigenvalues)

    def test_non_interaction_spectrum(self):
        cfg = SimulationConfig(n=100, m=10, p=2, k=2, seed=19)
        ds, _ = generate(cfg)
        spectrum = _spectra(ds, "non_interaction")[0]
        assert spectrum.eigenvalues.size == 10
        assert np.all(np.diff(spectrum.eigenvalues) <= 0)


class TestRowSpaceCore:
    """At n < m the top-k blocks come from the residuals' n x n cores; each check is against the m x m surfaces."""

    @staticmethod
    def _surfaces(ds):
        return read_surfaces(fit_first_stage(ds).residuals, ds.X)

    @staticmethod
    def _mean(ds):
        eps = ds.Y - ds.X @ regress.least_squares(ds.X, ds.Y)
        return (eps.T @ eps) / ds.n

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.filterwarnings("ignore::deconfound.errors.DegenerateBasisWarning")
    def test_blocks_match_the_surfaces(self, monkeypatch, p):
        ds, _ = generate(SimulationConfig(n=40, m=60, p=p, k=3, seed=20))
        surfaces = self._surfaces(ds)
        blocks, bases = [], []
        build, project = spectral.build_projection, regress.fit_projected_ols

        def recording_build(parts):
            blocks.append(parts)
            return build(parts)

        def recording_project(dataset, basis, **kwargs):
            bases.append(basis.U)
            return project(dataset, basis, **kwargs)

        monkeypatch.setattr(spectral, "build_projection", recording_build)
        monkeypatch.setattr(regress, "fit_projected_ols", recording_project)
        # k = 15 exceeds every phi_C(j) core's positive count but not phi_B's: a mixed basis
        for k in (3, 15):
            blocks.clear()
            bases.clear()
            for method in ("interaction_homo", "interaction_hetero", "non_interaction_homo"):
                fit_method(ds, method, k=k)
            (homo, hetero), mean_basis = blocks, bases[-1]
            for i, surface in enumerate(surfaces):
                reference = top_k_eigenvectors(surface, k)[0]
                assert sin_theta(homo[i], reference) <= 1e-10
                if i > 0:
                    assert sin_theta(hetero[i], reference) <= 1e-10
            assert sin_theta(mean_basis, top_k_eigenvectors(self._mean(ds), k)[0]) <= 1e-10

    @pytest.mark.filterwarnings("ignore::deconfound.errors.DegenerateBasisWarning")
    def test_k_above_the_positive_count_takes_the_surface_path(self):
        # every interaction core has rank <= n - q = 35 and the mean core
        # rank <= n - p = 38, so k = 36 and k = 39 fall back block by block
        # to the m x m surfaces and their null-space eigenvectors
        ds, _ = generate(SimulationConfig(n=40, m=120, p=2, k=3, seed=21))
        surfaces = self._surfaces(ds)
        blocks = [top_k_eigenvectors(surface, 36)[0] for surface in surfaces]
        homo = fit_projected_ols(ds, build_projection(blocks)).theta
        hetero = fit_projected_ols(ds, build_projection([hetero_pca(surfaces[0], 36, 5)] + blocks[1:])).theta
        assert np.array_equal(fit_method(ds, "interaction_homo", k=36).theta, homo)
        assert np.array_equal(fit_method(ds, "interaction_hetero", k=36).theta, hetero)
        mean_basis = ProjectionBasis(U=top_k_eigenvectors(self._mean(ds), 39)[0])
        assert np.array_equal(fit_method(ds, "non_interaction_homo", k=39).theta, fit_projected_ols(ds, mean_basis).theta)

    def test_known_k_homo_fit_decomposes_no_m_by_m_matrix(self, monkeypatch):
        ds, _ = generate(SimulationConfig(n=40, m=60, p=2, k=3, seed=22))
        shapes = []
        eigh, contract, qr = np.linalg.eigh, regress._contract_outer_products, np.linalg.qr

        def recording_eigh(a, *args, **kwargs):
            shapes.append(("eigh", np.shape(a)))
            return eigh(a, *args, **kwargs)

        def recording_contract(*args):
            surface = contract(*args)
            shapes.append(("surface", surface.shape))
            return surface

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(regress, "_contract_outer_products", recording_contract)
        monkeypatch.setattr(np.linalg, "qr", lambda a, *args: shapes.append(("qr", np.shape(a))) or qr(a, *args))
        fit_method(ds, "interaction_homo", k=3)
        # no QR; one eigh of the n x n Gram, then three r x r cores, r = n - q = 35, and one eigh of each
        assert shapes == [("eigh", (40, 40))] + [("surface", (35, 35))] * 3 + [("eigh", (35, 35))] * 3

    def test_known_k_fits_at_n_above_m_decompose_no_m_by_m_matrix(self, monkeypatch, stress_dataset):
        # at m=500, n=1000 every top-k block and every HeteroPCA step is
        # certified by the block iteration; only the selector reads whole spectra
        shapes = {"eigh": [], "eigvalsh": []}
        for name in shapes:

            def recording(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                shapes[_name].append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        for method in K_READING_METHODS:
            fit_method(stress_dataset, method, k=3)
        assert shapes["eigh"] and (500, 500) not in shapes["eigh"] and not shapes["eigvalsh"]
        select_k_hat(stress_dataset, "interaction", 3)
        select_k_hat(stress_dataset, "non_interaction", 3)
        assert shapes["eigvalsh"] == [(500, 500)] * 4 and (500, 500) not in shapes["eigh"]

    def test_certified_cores_match_the_surfaces(self, monkeypatch):
        # r = n - q = 245 cores are above the size rule at k = 3: their top k
        # are certified Ritz vectors, and the positivity check reads theta_k / theta_1
        ds, _ = generate(SimulationConfig(n=250, m=400, p=2, k=3, seed=26))
        references = []
        for surface in self._surfaces(ds):
            vals, vecs = np.linalg.eigh(surface)
            references.append(vecs[:, np.argsort(vals)[::-1][:3]])
        blocks, shapes = [], []
        build, eigh, contract = spectral.build_projection, np.linalg.eigh, regress._contract_outer_products

        def recording_build(parts):
            blocks.extend(parts)
            return build(parts)

        def recording_eigh(a, *args, **kwargs):
            shapes.append(("eigh", np.shape(a)))
            return eigh(a, *args, **kwargs)

        def recording_contract(*args):
            surface = contract(*args)
            shapes.append(("surface", surface.shape))
            return surface

        monkeypatch.setattr(spectral, "build_projection", recording_build)
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(regress, "_contract_outer_products", recording_contract)
        fit_method(ds, "interaction_homo", k=3)
        # three 245 x 245 cores, no m x m surface, one eigh of the n x n Gram and only the small Rayleigh-Ritz eighs
        assert [shape for kind, shape in shapes if kind == "surface"] == [(245, 245)] * 3
        eighs = [shape for kind, shape in shapes if kind == "eigh"]
        assert eighs[0] == (ds.n, ds.n) and all(shape[0] < 245 for shape in eighs[1:])
        assert all(sin_theta(block, reference) <= 1e-10 for block, reference in zip(blocks, references, strict=True))

    def test_near_overflow_surfaces_are_certified_without_warnings(self, monkeypatch, stress_dataset):
        # Y * 2**490 puts the surfaces near 1e295, where the squares inside an
        # unscaled residual norm overflow and no block could be certified
        theta = {method: fit_method(stress_dataset, method, k=3).theta for method in K_READING_METHODS}
        scaled = Dataset(X=stress_dataset.X, Y=np.ldexp(stress_dataset.Y, 490))
        calls = []  # [qr calls, certified] of each _certified_ritz call
        qr, ritz = np.linalg.qr, spectral._certified_ritz

        def counted_qr(*args, **kwargs):
            if calls and calls[-1][1] is None:
                calls[-1][0] += 1
            return qr(*args, **kwargs)

        def counted_ritz(*args, **kwargs):
            calls.append([0, None])
            result = ritz(*args, **kwargs)
            calls[-1][1] = result is not None
            return result

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        monkeypatch.setattr(spectral, "_certified_ritz", counted_ritz)
        for method in K_READING_METHODS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = np.ldexp(fit_method(scaled, method, k=3).theta, -490)
            assert np.linalg.norm(got - theta[method]) <= 1e-10 * np.linalg.norm(theta[method])
        # a block certified at sweep s took s products and s - 1 QRs
        assert calls and all(certified and qrs + 1 < spectral.BLOCK_MAX_SWEEPS for qrs, certified in calls)

    def test_known_k_hetero_fit_builds_only_phi_b_by_m(self, monkeypatch):
        # HeteroPCA reads the m x m phi_B; the phi_C(j) blocks come from their cores
        ds, _ = generate(SimulationConfig(n=40, m=60, p=2, k=3, seed=22))
        shapes = []
        contract = regress._contract_outer_products

        def recording_contract(*args):
            surface = contract(*args)
            shapes.append(surface.shape)
            return surface

        monkeypatch.setattr(regress, "_contract_outer_products", recording_contract)
        fit_method(ds, "interaction_hetero", k=3)
        assert shapes.count((60, 60)) == 1 and shapes.count((35, 35)) == 3

    @pytest.mark.parametrize("p", [2, 3])
    def test_selector_spectra_stay_those_of_the_m_by_m_surfaces(self, p):
        ds, _ = generate(SimulationConfig(n=40, m=60, p=p, k=3, seed=23))
        for spectrum, surface in zip(_spectra(ds, "interaction"), self._surfaces(ds)):
            assert np.array_equal(spectrum.eigenvalues, eigen_spectrum(surface, "ref").eigenvalues)
        assert np.array_equal(_spectra(ds, "non_interaction")[0].eigenvalues, eigen_spectrum(self._mean(ds), "ref").eigenvalues)

    def test_one_first_stage_per_dataset_and_cores_released(self, monkeypatch):
        ds, truth = generate(SimulationConfig(n=40, m=60, p=2, k=3, seed=24))
        calls, refs, stages = [], [], []
        first, diagonal, stage_type = regress.fit_first_stage, regress.fit_diagonal_surfaces, estimators.Stage

        def counted_first(*args):
            calls.append(args)
            return first(*args)

        def tracked_cores(eps, *args):
            # the r x r cores come from the n x r factor F, r = n - q = 35; the m x m surfaces from the n x m residuals
            surfaces = diagonal(eps, *args)
            if eps.shape == (ds.n, 35):
                refs.extend(weakref.ref(core) for core in surfaces)
            return surfaces

        def kept_stage(dataset):
            # held past the run, so only close() can free the cores
            stages.append(stage_type(dataset))
            return stages[-1]

        monkeypatch.setattr(regress, "fit_first_stage", counted_first)
        monkeypatch.setattr(regress, "fit_diagonal_surfaces", tracked_cores)
        monkeypatch.setattr(estimators, "Stage", kept_stage)
        gc.disable()
        try:
            outcomes = bench._run_dataset(ds, METHODS, k=3, k_star=None, n_iter=5, truth=truth)
            assert len(stages) == 1
            assert len(calls) == 1 and len(refs) == 3 and all(ref() is None for ref in refs)
        finally:
            gc.enable()
        assert all(k_used == 3 for _, k_used in outcomes[2:])

    @pytest.mark.parametrize("noise, alpha", [("homoscedastic", 0.0), ("heteroscedastic", 6.0)])
    def test_s2_blocks_from_the_gram_match_the_surfaces(self, noise, alpha):
        for seed in range(4):
            ds, _ = generate(SimulationConfig(n=100, m=500, p=2, k=3, noise=noise, alpha=alpha, seed=seed))
            with closing(Stage(ds)) as stage:
                for family, names in stage.names.items():
                    assert stage._cores(family) is not None
                    for i in range(len(names)):
                        block = stage.top_k(family, i, 3)
                        assert sin_theta(block, top_k_eigenvectors(stage.surface(family, i), 3)[0]) <= 1e-10
                        if family == "non_interaction":
                            assert np.max(np.abs(block.T @ block - np.eye(3))) <= ORTHONORMAL_TOL

    def test_near_low_rank_residuals_take_the_surface_path(self):
        # a rank-20 signal plus 1e-4 noise puts the residuals' Gram eigenvalues
        # 21 and on near 1e-11 lambda_1: neither kept nor at round-off
        x = generate(SimulationConfig(n=100, m=500, p=2, k=3, seed=0))[0].X
        rng = np.random.default_rng(1)
        y = rng.standard_normal((100, 20)) @ rng.standard_normal((20, 500)) + 1e-4 * rng.standard_normal((100, 500))
        with closing(Stage(Dataset(X=x, Y=y))) as stage:
            for family, names in stage.names.items():
                assert stage._cores(family) is None
                for i in range(len(names)):
                    reference = top_k_eigenvectors(stage.surface(family, i), 3)[0]
                    assert np.array_equal(stage.top_k(family, i, 3), reference)

    def test_k_above_the_kept_count_decomposes_no_core(self, monkeypatch):
        # r = n - p = 38 kept Gram pairs for the mean outer product: k = 39 takes the surface before any core eigh
        ds, _ = generate(SimulationConfig(n=40, m=60, p=2, k=3, seed=21))
        shapes = []
        top_k = spectral.top_k_eigenvectors
        monkeypatch.setattr(spectral, "top_k_eigenvectors", lambda a, k: shapes.append(np.shape(a)) or top_k(a, k))
        with closing(Stage(ds)) as stage:
            assert stage._cores("non_interaction")[0].shape == (40, 38)
            got = stage.top_k("non_interaction", 0, 39)
            assert shapes == [(60, 60)] and np.array_equal(got, top_k(self._mean(ds), 39)[0])

    def test_a_gram_that_is_not_finite_or_normal_takes_the_surface_path(self):
        ds, _ = generate(SimulationConfig(n=20, m=40, p=2, k=1, seed=3))
        with np.errstate(over="ignore", invalid="ignore"), closing(Stage(Dataset(X=ds.X, Y=ds.Y * 1e160))) as stage:
            for family, names in stage.names.items():
                assert stage._cores(family) is None
                with pytest.raises(NonFiniteError, match=rf"^step 3 \(covariance regression\): {re.escape(names[-1])} has"):
                    stage.top_k(family, len(names) - 1, 1)
        # lambda_1 = 0 is not a normal number
        with closing(Stage(Dataset(X=ds.X, Y=np.zeros((20, 40))))) as stage:
            assert stage._cores("interaction") is None and stage._cores("non_interaction") is None


class TestOperatorPath:
    """At n < m above the size rule, HeteroPCA and the non-interaction top-k block run on V -> eps^T (w o (eps V))."""

    @pytest.fixture(scope="class")
    def dataset(self):
        # m = 240 >= 16 * (3 + 10), the top-k block's size rule at K = 3
        return generate(SimulationConfig(n=60, m=240, p=2, k=3, noise="heteroscedastic", alpha=6.0, seed=27))[0]

    @staticmethod
    def _outcomes(monkeypatch) -> list:
        """Whether each HeteroPCA call with an operator certified, in call order: it never built its m x m surface."""
        outcomes = []
        hetero = spectral.hetero_pca

        def recording_hetero(S, k, n_iter, operator=None):
            if operator is None:
                return hetero(S, k, n_iter)
            built = []
            result = hetero(lambda: built.append(1) or S(), k, n_iter, operator)
            outcomes.append(not built)
            return result

        monkeypatch.setattr(spectral, "hetero_pca", recording_hetero)
        return outcomes

    @pytest.mark.parametrize("n_iter", [1, 5, 20])
    def test_blocks_match_the_surfaces(self, monkeypatch, dataset, n_iter):
        phi_b = read_surfaces(fit_first_stage(dataset).residuals, dataset.X)[0]
        eps = dataset.Y - dataset.X @ regress.least_squares(dataset.X, dataset.Y)
        mean = (eps.T @ eps) / dataset.n
        blocks, bases = [], []
        build, project = spectral.build_projection, regress.fit_projected_ols

        def recording_build(parts):
            blocks.append(parts[0])
            return build(parts)

        def recording_project(ds, basis, **kwargs):
            bases.append(basis.U)
            return project(ds, basis, **kwargs)

        monkeypatch.setattr(spectral, "build_projection", recording_build)
        monkeypatch.setattr(regress, "fit_projected_ols", recording_project)
        outcomes = self._outcomes(monkeypatch)
        fit_method(dataset, "interaction_hetero", k=3, n_iter=n_iter)
        fit_method(dataset, "non_interaction_homo", k=3)
        fit_method(dataset, "non_interaction_hetero", k=3, n_iter=n_iter)
        assert outcomes == [True, True]
        assert sin_theta(blocks[0], hetero_pca(phi_b, 3, n_iter)) <= 1e-10
        assert sin_theta(bases[1], top_k_eigenvectors(mean, 3)[0]) <= 1e-10
        assert sin_theta(bases[2], hetero_pca(mean, 3, n_iter)) <= 1e-10

    def test_known_k_fits_build_no_m_by_m_array(self, monkeypatch, dataset):
        surfaces, qrs, eighs = [], [], []
        rule, qr, eigh = estimators.Stage._rule, np.linalg.qr, np.linalg.eigh

        def recording_rule(stage, *args):
            built = rule(stage, *args)
            surfaces.extend(surface.shape for surface in built)
            return built

        def recording(shapes, original):
            return lambda a, *args, **kwargs: shapes.append(np.shape(a)) or original(a, *args, **kwargs)

        monkeypatch.setattr(estimators.Stage, "_rule", recording_rule)
        monkeypatch.setattr(np.linalg, "qr", recording(qrs, qr))
        monkeypatch.setattr(np.linalg, "eigh", recording(eighs, eigh))
        for method in ("non_interaction_homo", "non_interaction_hetero"):
            fit_method(dataset, method, k=3)
        # no surface; the homo block is the r x r core's (r = n - p = 58), from one eigh of the n x n Gram;
        # every QR is of HeteroPCA's m x (k + 10) block, and every other eigh a Rayleigh-Ritz one
        assert surfaces == [(58, 58)] and set(qrs) == {(240, 13)}
        assert eighs.count((60, 60)) == 1 and set(eighs) == {(60, 60), (58, 58), (13, 13)}
        surfaces.clear()
        qrs.clear()
        fit_method(dataset, "interaction_hetero", k=3)
        # phi_B's HeteroPCA reads no surface; the phi_C(j) blocks come from the r x r cores, r = n - q = 55
        assert surfaces == [(55, 55)] * 3 and set(qrs) == {(240, 13)}

    def test_refused_operator_runs_todays_path_bitwise(self, monkeypatch, dataset):
        # one sweep certifies no block, so every operator-form call returns None
        monkeypatch.setattr(spectral, "BLOCK_MAX_SWEEPS", 1)
        outcomes = self._outcomes(monkeypatch)
        got = {method: fit_method(dataset, method, k=3).theta for method in K_READING_METHODS}
        assert outcomes == [False, False]
        monkeypatch.setattr(estimators.Stage, "_operator", lambda *args: None)
        for method, theta in got.items():
            assert np.array_equal(theta, fit_method(dataset, method, k=3).theta)

    def test_a_refused_step_resumes_and_builds_phi_b_once(self, monkeypatch, dataset):
        # phi_B's HeteroPCA certifies steps 0 and 1 and is refused at step 2; the
        # phi_C(j) blocks come from 60 x 60 cores, below every size rule
        calls, blocks, surfaces = [], [], []
        ritz, build, rule = spectral._certified_ritz, spectral.build_projection, estimators.Stage._rule

        def refusing(*args, **kwargs):
            calls.append(1)
            return ritz(*args, **kwargs) if len(calls) <= 2 else None

        def recording_rule(stage, *args):
            built = rule(stage, *args)
            surfaces.extend(surface.shape for surface in built)
            return built

        monkeypatch.setattr(spectral, "_certified_ritz", refusing)
        monkeypatch.setattr(spectral, "build_projection", lambda parts: blocks.append(parts[0]) or build(parts))
        monkeypatch.setattr(estimators.Stage, "_rule", recording_rule)
        fit_method(dataset, "interaction_hetero", k=3)
        assert len(calls) == 3 and surfaces.count((240, 240)) == 1
        calls.clear()
        monkeypatch.setattr(estimators.Stage, "_operator", lambda *args: None)
        fit_method(dataset, "interaction_hetero", k=3)
        assert len(calls) == 3
        assert sin_theta(blocks[0], blocks[1]) <= 1e-10

    def test_a_refused_chain_leaves_the_surfaces_unchanged(self, monkeypatch, dataset):
        monkeypatch.setattr(spectral, "BLOCK_MAX_SWEEPS", 1)
        outcomes = self._outcomes(monkeypatch)
        with closing(Stage(dataset)) as stage:
            for method in ("interaction_hetero", "non_interaction_hetero"):
                stage.fit(method, k=3)
            spectra = {family: stage.spectra(family) for family in stage.names}
        assert outcomes == [False, False]
        for family, got in spectra.items():
            for spectrum, fresh in zip(got, _spectra(dataset, family), strict=True):
                assert np.array_equal(spectrum.eigenvalues, fresh.eigenvalues)

    def test_near_overflow_residuals_are_certified_without_warnings(self, monkeypatch, dataset):
        theta = {method: fit_method(dataset, method, k=3).theta for method in K_READING_METHODS}
        scaled = Dataset(X=dataset.X, Y=np.ldexp(dataset.Y, 490))
        outcomes = self._outcomes(monkeypatch)
        for method in K_READING_METHODS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = np.ldexp(fit_method(scaled, method, k=3).theta, -490)
            assert np.linalg.norm(got - theta[method]) <= 1e-10 * np.linalg.norm(theta[method])
        assert outcomes == [True, True]


class TestRefusedBlocks:
    @pytest.mark.parametrize("k", [5, 6])
    def test_a_refused_block_stops_early(self, monkeypatch, stress_dataset, k):
        # the top k by |lambda| of each interaction surface hold a negative
        # eigenvalue, so no block is accepted; each used to run 10 to 52 products first
        with closing(Stage(stress_dataset)) as stage:
            surfaces = [stage.surface("interaction", i) for i in range(3)]
        products = []
        ritz = spectral._certified_ritz

        def counted_ritz(apply, *args, **kwargs):
            products.append(0)

            def counted(v):
                products[-1] += 1
                return apply(v)

            return ritz(counted, *args, **kwargs)

        monkeypatch.setattr(spectral, "_certified_ritz", counted_ritz)
        for surface in surfaces:
            vecs, vals = top_k_eigenvectors(surface, k)
            all_vals, all_vecs = np.linalg.eigh(surface)
            order = np.argsort(all_vals)[::-1]
            assert np.array_equal(vals, all_vals[order])
            assert np.array_equal(vecs, spectral.fix_signs(all_vecs[:, order[:k]]))
        assert len(products) == 3 and max(products) <= 5


class TestDefaults:
    def test_heteropca_iteration_default(self):
        from deconfound.estimators import DEFAULT_N_ITER

        assert DEFAULT_N_ITER == 5


class TestFitMethodDispatch:
    def test_requires_k(self):
        rng = np.random.default_rng(20)
        ds = Dataset(X=rng.standard_normal((50, 2)), Y=rng.standard_normal((50, 8)))
        with pytest.raises(DataError):
            fit_method(ds, "interaction_homo")
        # a k that is not an integer is a data error before any step; k = 0 is test_k_must_be_positive's
        for k in (2.5, 2.0, True):
            with pytest.raises(DataError, match="k must be a positive integer") as info:
                fit_method(ds, "interaction_homo", k=k)
            assert "step" not in str(info.value)

    def test_requires_truth_for_oracle(self):
        rng = np.random.default_rng(21)
        ds = Dataset(X=rng.standard_normal((50, 2)), Y=rng.standard_normal((50, 8)))
        with pytest.raises(DataError):
            fit_method(ds, "oracle")

    def test_unknown_method(self):
        rng = np.random.default_rng(22)
        ds = Dataset(X=rng.standard_normal((50, 2)), Y=rng.standard_normal((50, 8)))
        with pytest.raises(DataError):
            fit_method(ds, "lasso", k=1)
        # the selectors' families and bounds
        with pytest.raises(DataError, match="unknown selector family 'bogus'; known: interaction, non_interaction"):
            select_k_hat(ds, "bogus", 3)
        with closing(Stage(ds)) as stage, pytest.raises(DataError, match="unknown selector family"):
            stage.spectra("bogus")
        with pytest.raises(DataError, match="k_star must be a positive integer"):
            select_k_hat(ds, "interaction", 2.5)

    @pytest.mark.parametrize("method", ["interaction_hetero", "non_interaction_hetero"])
    def test_invalid_n_iter_rejected_before_any_step(self, method):
        # an all-zero design fails step 1, so a DataError here means the
        # iteration count was checked before the pipeline started
        ds = Dataset(X=np.zeros((50, 2)), Y=np.random.default_rng(23).standard_normal((50, 8)))
        for n_iter in (0, -1, 2.5):
            with pytest.raises(DataError, match="n_iter must be a positive integer") as info:
                fit_method(ds, method, k=2, n_iter=n_iter)
            assert "step" not in str(info.value)


class TestStage:
    def test_one_stage_serves_the_selector_spectra_and_every_method(self, monkeypatch):
        ds, truth = generate(SimulationConfig(n=1000, m=25, p=2, k=3, eta_dep=0.5, seed=42))
        k_hat = select_k_hat(ds, "interaction", 8)
        alone = {method: fit_method(ds, method, k=k_hat, truth=truth).theta for method in METHODS}
        calls = []
        first = regress.fit_first_stage

        def counted_first(*args):
            calls.append(args)
            return first(*args)

        monkeypatch.setattr(regress, "fit_first_stage", counted_first)
        stage = Stage(ds)
        k = stage.select_k("interaction", 8)
        assert k == k_hat == 3
        assert [s.source for s in stage.spectra("interaction")] == ["phi_B", "phi_C[0]", "phi_C[1]"]
        for method in METHODS:
            assert np.array_equal(stage.fit(method, k=k, truth=truth).theta, alone[method]), method
        assert len(calls) == 1
        stage.close()
        assert stage._memo == {}
