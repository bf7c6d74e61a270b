import gc
import weakref

import numpy as np
import pytest
from conftest import normal_equations

from deconfound.errors import (
    DataError,
    DimensionMismatchError,
    NumericalError,
)
from deconfound.estimators import (
    fit_heteroscedastic,
    fit_homoscedastic,
    fit_method,
    fit_non_interaction,
    fit_ols_baseline,
    fit_oracle,
    interaction_spectra,
    non_interaction_spectrum,
)
from deconfound import bench, estimators, regress, spectral
from deconfound.bench import ExperimentGrid, run_grid, select_k_hat, sse_log
from deconfound.model import (
    METHODS,
    CovarianceFit,
    Dataset,
    GroundTruth,
    NoiseSpec,
    ProjectionBasis,
    SimulationConfig,
)
from deconfound.regress import fit_covariance_regression, fit_first_stage, fit_projected_ols
from deconfound.simulate import ar_covariance, generate
from deconfound.spectral import (
    build_projection,
    eigen_spectrum,
    hetero_pca,
    sin_theta,
    top_k_eigenvectors,
)


def _noiseless_linear(rng, n=50, p=2, m=6):
    a = rng.standard_normal((p, m))
    x = rng.standard_normal((n, p))
    return Dataset(X=x, Y=x @ a), a


class TestOLSBaseline:
    def test_noiseless_recovery(self):
        ds, a = _noiseless_linear(np.random.default_rng(0))
        est = fit_ols_baseline(ds)
        assert np.max(np.abs(est.theta - a)) < 1e-8
        assert est.method == "ols" and est.k_used is None

    def test_equals_projected_ols_with_empty_basis(self):
        rng = np.random.default_rng(1)
        ds = Dataset(X=rng.standard_normal((30, 2)), Y=rng.standard_normal((30, 4)))
        est = fit_ols_baseline(ds)
        via_projection = fit_projected_ols(ds, ProjectionBasis.empty(4))
        assert np.max(np.abs(est.theta - via_projection.theta)) < 1e-12


class TestOracle:
    def test_annihilates_hidden_effects(self):
        cfg = SimulationConfig(n=50, m=20, p=2, k=3, seed=3)
        ds, truth = generate(cfg)
        est = fit_oracle(ds, truth)
        assert est.method == "oracle" and est.k_used == 3
        stacked = truth.stacked_hidden_effects()
        u, _, _ = np.linalg.svd(stacked.T, full_matrices=False)
        proj = u @ u.T
        assert np.linalg.norm(stacked.T - proj @ stacked.T) < 1e-10

    def test_dimension_mismatch(self):
        cfg = SimulationConfig(n=50, m=20, p=2, k=3, seed=4)
        ds, truth = generate(cfg)
        other_cfg = SimulationConfig(n=50, m=24, p=2, k=3, seed=4)
        _, other_truth = generate(other_cfg)
        with pytest.raises(DimensionMismatchError):
            fit_oracle(ds, other_truth)

    def test_truth_constructor_rejects_mismatched_hidden_rows(self):
        rng = np.random.default_rng(5)
        with pytest.raises(DimensionMismatchError):
            GroundTruth(
                A=rng.standard_normal((1, 10)),
                B=rng.standard_normal((2, 10)),
                C=(rng.standard_normal((3, 10)),),
                psi=rng.standard_normal((1, 2)),
                sigma_w=1.0,
                noise=NoiseSpec.homoscedastic(),
            )


class TestInteractionPipelines:
    def test_rank_budget_checked_first(self):
        rng = np.random.default_rng(6)
        ds = Dataset(X=rng.standard_normal((100, 2)), Y=rng.standard_normal((100, 25)))
        with pytest.raises(NumericalError, match="exceeds m"):
            fit_homoscedastic(ds, 400)
        with pytest.raises(NumericalError):
            fit_heteroscedastic(ds, 400, 5)

    def test_k_must_be_positive(self):
        rng = np.random.default_rng(7)
        ds = Dataset(X=rng.standard_normal((100, 2)), Y=rng.standard_normal((100, 25)))
        with pytest.raises(NumericalError):
            fit_homoscedastic(ds, 0)
        with pytest.raises(NumericalError):
            fit_non_interaction(ds, 0, "homo")

    def test_stage_tagged_errors(self):
        # n large enough for stage 1 (n > 5) but not stage 3 (needs n > 6)
        rng = np.random.default_rng(8)
        ds = Dataset(X=rng.standard_normal((6, 2)), Y=rng.standard_normal((6, 25)))
        with pytest.raises(NumericalError, match=r"step 3 \(covariance regression\)"):
            fit_homoscedastic(ds, 3)

    def test_deterministic(self):
        cfg = SimulationConfig(n=120, m=12, p=2, k=2, seed=9)
        ds, _ = generate(cfg)
        a = fit_homoscedastic(ds, 2)
        b = fit_homoscedastic(ds, 2)
        assert np.array_equal(a.theta, b.theta)
        c = fit_heteroscedastic(ds, 2, 5)
        d = fit_heteroscedastic(ds, 2, 5)
        assert np.array_equal(c.theta, d.theta)

    def test_matches_manual_stage_chain(self):
        # p = 3 reads the diagonal pairs (0, 0), (1, 1), (2, 2) from among six
        for p in (2, 3):
            cfg = SimulationConfig(n=150, m=10, p=p, k=2, seed=10)
            ds, _ = generate(cfg)
            est = fit_homoscedastic(ds, 2)
            first = fit_first_stage(ds)
            cov = fit_covariance_regression(first, ds.X)
            blocks = [top_k_eigenvectors(cov.phi_B, 2)[0]]
            blocks += [top_k_eigenvectors(cov.phi_C(j), 2)[0] for j in range(p)]
            basis = build_projection(blocks)
            manual = fit_projected_ols(ds, basis)
            assert np.max(np.abs(est.theta - manual.theta)) < 1e-12
            assert est.method == "interaction_homo" and est.k_used == 2

    def test_hetero_uses_heteropca_for_b_block(self):
        for p in (2, 3):
            cfg = SimulationConfig(n=150, m=10, p=p, k=2, seed=11)
            ds, _ = generate(cfg)
            est = fit_heteroscedastic(ds, 2, 7)
            first = fit_first_stage(ds)
            cov = fit_covariance_regression(first, ds.X)
            blocks = [hetero_pca(cov.phi_B, 2, 7)]
            blocks += [top_k_eigenvectors(cov.phi_C(j), 2)[0] for j in range(p)]
            manual = fit_projected_ols(ds, build_projection(blocks))
            assert np.max(np.abs(est.theta - manual.theta)) < 1e-12
            assert est.method == "interaction_hetero" and est.t_used == 7

    def test_builds_only_the_read_surfaces(self, monkeypatch):
        # the estimator path builds phi_B and the p phi_C(j), never a CovarianceFit
        built = []
        contract = regress._contract_outer_products

        def counting_contract(*args):
            built.append(args)
            return contract(*args)

        def no_covariance_fit(self):
            raise AssertionError("CovarianceFit constructed on the estimator path")

        monkeypatch.setattr(regress, "_contract_outer_products", counting_contract)
        monkeypatch.setattr(CovarianceFit, "__post_init__", no_covariance_fit)
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
        # surfaces, one mean outer product and one eigh per phi_C(j)
        calls = {"first_stage": 0, "surfaces": 0, "mean": 0}
        sources = []

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        top_k = spectral.top_k_eigenvectors

        def recording_top_k(*args, **kwargs):
            sources.append(kwargs.get("source"))
            return top_k(*args, **kwargs)

        monkeypatch.setattr(regress, "fit_first_stage", counted("first_stage", regress.fit_first_stage))
        monkeypatch.setattr(regress, "_contract_outer_products", counted("surfaces", regress._contract_outer_products))
        monkeypatch.setattr(estimators, "_mean_outer_product", counted("mean", estimators._mean_outer_product))
        monkeypatch.setattr(spectral, "top_k_eigenvectors", recording_top_k)
        grid = ExperimentGrid(
            base=SimulationConfig(n=300, m=10, p=2, k=2, sigma_w=1.5, seed=5),
            sweep_param="eta_dep", sweep_values=(0.5,), replicates=1,
            methods=METHODS, k_policy="selected", k_star=2, n_star=50,
        )
        report = run_grid(grid)
        assert report.failure_count() == 0
        assert calls == {"first_stage": 1, "surfaces": 3, "mean": 1}
        assert sources.count("phi_C[0]") == sources.count("phi_C[1]") == 1
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
        cov = fit_covariance_regression(fit_first_stage(ds), ds.X)
        u_pca, _ = top_k_eigenvectors(cov.phi_B, 3)
        u_hp = hetero_pca(cov.phi_B, 3, 50)
        assert sin_theta(u_pca, u_hp) < 0.05

    def test_small_instance_normal_equations_equivalence(self):
        # every pipeline ends in a least-squares solve of the projected
        # responses on X; rebuild each method's projected target and compare
        # against the explicit normal-equations oracle
        cfg = SimulationConfig(n=40, m=9, p=2, k=1, seed=13)
        ds, truth = generate(cfg)
        cov = fit_covariance_regression(fit_first_stage(ds), ds.X)
        theta_lin = normal_equations(ds.X, ds.Y)
        phi_mean = ((ds.Y - ds.X @ theta_lin).T @ (ds.Y - ds.X @ theta_lin)) / ds.n
        c_blocks = [top_k_eigenvectors(cov.phi_C(j), 1)[0] for j in range(2)]
        bases = {
            "ols": ProjectionBasis.empty(ds.m),
            "oracle": None,
            "interaction_homo": build_projection([top_k_eigenvectors(cov.phi_B, 1)[0]] + c_blocks),
            "interaction_hetero": build_projection([hetero_pca(cov.phi_B, 1, 3)] + c_blocks),
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
        ols = fit_ols_baseline(ds)
        assert np.linalg.norm(ols.theta - a) / np.linalg.norm(a) < 0.05
        est = fit_homoscedastic(ds, k)
        cov = fit_covariance_regression(fit_first_stage(ds), ds.X)
        blocks = [top_k_eigenvectors(cov.phi_B, k)[0]]
        blocks += [top_k_eigenvectors(cov.phi_C(j), k)[0] for j in range(p)]
        basis = build_projection(blocks)
        projected_ols = ols.theta @ (np.eye(m) - basis.projector())
        assert np.max(np.abs(est.theta - projected_ols)) < 1e-8


class TestNonInteraction:
    def test_variant_validation(self):
        rng = np.random.default_rng(15)
        ds = Dataset(X=rng.standard_normal((50, 2)), Y=rng.standard_normal((50, 8)))
        with pytest.raises(DataError):
            fit_non_interaction(ds, 2, "robust")

    def test_matches_manual_chain(self):
        cfg = SimulationConfig(n=100, m=10, p=2, k=2, seed=16)
        ds, _ = generate(cfg)
        est = fit_non_interaction(ds, 2, "homo")
        theta_lin = normal_equations(ds.X, ds.Y)
        eps = ds.Y - ds.X @ theta_lin
        phi_b = (eps.T @ eps) / ds.n
        u, _ = top_k_eigenvectors(phi_b, 2)
        manual = fit_projected_ols(ds, ProjectionBasis(U=u))
        assert np.max(np.abs(est.theta - manual.theta)) < 1e-8
        assert est.method == "non_interaction_homo"

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
            sse_int.append(np.sum((fit_homoscedastic(ds, k).theta - a) ** 2))
            sse_non.append(np.sum((fit_non_interaction(ds, k, "homo").theta - a) ** 2))
            sse_ols.append(np.sum((fit_ols_baseline(ds).theta - a) ** 2))
        assert np.mean(sse_non) < np.mean(sse_int)
        assert np.mean(sse_int) < np.mean(sse_ols)


class TestSpectraHelpers:
    def test_interaction_spectra_shapes(self):
        for p in (2, 3):
            cfg = SimulationConfig(n=100, m=10, p=p, k=2, seed=18)
            ds, _ = generate(cfg)
            spectra = interaction_spectra(ds)
            assert len(spectra) == p + 1
            assert all(s.eigenvalues.size == 10 for s in spectra)
            assert spectra[0].source == "phi_B"
            cov = fit_covariance_regression(fit_first_stage(ds), ds.X)
            surfaces = [cov.phi_B] + [cov.phi_C(j) for j in range(p)]
            for spectrum, surface in zip(spectra, surfaces):
                assert np.array_equal(spectrum.eigenvalues, eigen_spectrum(surface, "ref").eigenvalues)

    def test_non_interaction_spectrum(self):
        cfg = SimulationConfig(n=100, m=10, p=2, k=2, seed=19)
        ds, _ = generate(cfg)
        spectrum = non_interaction_spectrum(ds)
        assert spectrum.eigenvalues.size == 10
        assert np.all(np.diff(spectrum.eigenvalues) <= 0)


class TestRowSpaceCore:
    """At n < m the top-k blocks come from the residuals' n x n cores; each check is against the m x m surfaces."""

    @staticmethod
    def _surfaces(ds):
        cov = fit_covariance_regression(fit_first_stage(ds), ds.X)
        return [cov.phi_B] + [cov.phi_C(j) for j in range(ds.p)]

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
        eigh, contract = np.linalg.eigh, regress._contract_outer_products

        def recording_eigh(a, *args, **kwargs):
            shapes.append(("eigh", np.shape(a)))
            return eigh(a, *args, **kwargs)

        def recording_contract(*args):
            surface = contract(*args)
            shapes.append(("surface", surface.shape))
            return surface

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(regress, "_contract_outer_products", recording_contract)
        fit_method(ds, "interaction_homo", k=3)
        assert len(shapes) == 6 and all(shape == (40, 40) for _, shape in shapes)

    @pytest.mark.parametrize("p", [2, 3])
    def test_selector_spectra_stay_those_of_the_m_by_m_surfaces(self, p):
        ds, _ = generate(SimulationConfig(n=40, m=60, p=p, k=3, seed=23))
        for spectrum, surface in zip(interaction_spectra(ds), self._surfaces(ds)):
            assert np.array_equal(spectrum.eigenvalues, eigen_spectrum(surface, "ref").eigenvalues)
        assert np.array_equal(non_interaction_spectrum(ds).eigenvalues, eigen_spectrum(self._mean(ds), "ref").eigenvalues)

    def test_one_first_stage_per_dataset_and_cores_released(self, monkeypatch):
        ds, truth = generate(SimulationConfig(n=40, m=60, p=2, k=3, seed=24))
        calls, refs = [], []
        first, cores = regress.fit_first_stage, regress.fit_diagonal_cores

        def counted_first(*args):
            calls.append(args)
            return first(*args)

        def tracked_cores(*args):
            factors = cores(*args)
            refs.extend(weakref.ref(core) for _, core in factors)
            return factors

        monkeypatch.setattr(regress, "fit_first_stage", counted_first)
        monkeypatch.setattr(regress, "fit_diagonal_cores", tracked_cores)
        gc.disable()
        try:
            outcomes = bench._run_dataset(ds, METHODS, k=3, k_star=None, n_iter=5, truth=truth)
            assert len(calls) == 1 and len(refs) == 3 and all(ref() is None for ref in refs)
        finally:
            gc.enable()
        assert all(k_used == 3 for _, k_used in outcomes[2:])


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

    @pytest.mark.parametrize("method", ["interaction_hetero", "non_interaction_hetero"])
    def test_invalid_n_iter_rejected_before_any_step(self, method):
        # an all-zero design fails step 1, so a DataError here means the
        # iteration count was checked before the pipeline started
        ds = Dataset(X=np.zeros((50, 2)), Y=np.random.default_rng(23).standard_normal((50, 8)))
        for n_iter in (0, -1):
            with pytest.raises(DataError, match="n_iter must be a positive integer") as info:
                fit_method(ds, method, k=2, n_iter=n_iter)
            assert "step" not in str(info.value)
