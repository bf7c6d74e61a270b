from dataclasses import replace

import numpy as np
import pytest

from deconfound.bench import (
    ExperimentGrid,
    cross_validate,
    fold_indices,
    pmse_log,
    replicate_seed,
    run_grid,
    run_k_selection,
    snr,
    sse_log,
)
from deconfound import bench, regress
from deconfound.errors import DataError, DimensionMismatchError
from deconfound.model import METHODS, Dataset, GroundTruth, SimulationConfig
from deconfound.simulate import CHUNK_ROWS, generate, generate_test_split, split_statistics


class TestSSELog:
    def test_closed_form(self):
        a = np.array([[1.0]])
        theta = np.array([[1.0 + np.e]])
        assert abs(sse_log(theta, a) - 2.0) < 1e-12

    def test_exact_zero_gives_minus_inf(self):
        a = np.arange(6.0).reshape(2, 3)
        assert sse_log(a, a) == float("-inf")

    def test_direct_recomputation(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal((2, 5))
        a = rng.standard_normal((2, 5))
        want = np.log(np.sum((theta - a) ** 2) / 5)
        assert abs(sse_log(theta, a) - want) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sse_log(np.zeros((2, 3)), np.zeros((3, 2)))


class TestPMSELog:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 2))
        theta = rng.standard_normal((2, 4))
        test = Dataset(X=x, Y=x @ theta)
        assert pmse_log(theta, test) == float("-inf")

    def test_constant_residual(self):
        x = np.zeros((7, 2))
        x[:, 0] = 1.0
        test = Dataset(X=x, Y=np.full((7, 3), 2.0))
        assert abs(pmse_log(np.zeros((2, 3)), test) - np.log(4.0)) < 1e-12

    def test_direct_recomputation(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 2))
        y = rng.standard_normal((20, 4))
        theta = rng.standard_normal((2, 4))
        want = np.log(np.mean((y - x @ theta) ** 2))
        assert abs(pmse_log(theta, Dataset(X=x, Y=y)) - want) < 1e-12


class TestSNR:
    def _truth(self, b, sigma_w=1.0):
        k, m = b.shape
        rng = np.random.default_rng(3)
        return GroundTruth(
            A=rng.standard_normal((1, m)), B=b,
            C=(rng.standard_normal((k, m)),),
            psi=rng.standard_normal((1, k)), sigma_w=sigma_w,
            tau2=np.ones(m),
        )

    def test_orthogonal_rows_of_norm_m(self):
        m, k = 12, 3
        b = np.zeros((k, m))
        for i in range(k):
            b[i, i] = np.sqrt(m)
        assert abs(snr(self._truth(b)) - 1.0) < 1e-12

    def test_sigma_w_scaling(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((2, 10))
        assert abs(snr(self._truth(b, 2.0)) - 4.0 * snr(self._truth(b, 1.0))) < 1e-10

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((3, 15))
        truth = self._truth(b, 1.7)
        dense = np.linalg.eigvalsh(1.7**2 * b.T @ b)[::-1][2] / 15
        assert abs(snr(truth) - dense) < 1e-10


class TestReplicateSeed:
    def test_stable(self):
        assert replicate_seed(7, "eta_dep", 0.5, 3) == replicate_seed(7, "eta_dep", 0.5, 3)

    def test_distinguishes_cells(self):
        seeds = {
            replicate_seed(7, "eta_dep", 0.5, 0),
            replicate_seed(7, "eta_dep", 0.5, 1),
            replicate_seed(7, "eta_dep", 0.7, 0),
            replicate_seed(8, "eta_dep", 0.5, 0),
            replicate_seed(7, "alpha", 0.5, 0),
        }
        assert len(seeds) == 5

    def test_known_value(self):
        # frozen so grids stay reproducible across releases
        assert replicate_seed(0, "eta_dep", 0.1, 0) == 7894329185031435792


def _tiny_grid(**overrides):
    base = SimulationConfig(n=40, m=8, p=2, k=1, seed=5)
    defaults = dict(
        base=base,
        sweep_param="eta_dep",
        sweep_values=(0.1, 0.5),
        replicates=2,
        methods=("ols", "oracle", "interaction_homo"),
        n_star=100,
    )
    defaults.update(overrides)
    return ExperimentGrid(**defaults)


class TestRunGrid:
    def test_record_count(self):
        grid = _tiny_grid()
        report = run_grid(grid)
        assert len(report.records) == 2 * 2 * 3
        assert report.failure_count() == 0

    def test_single_method_single_replicate(self):
        grid = _tiny_grid(replicates=1, methods=("ols",))
        report = run_grid(grid)
        assert len(report.records) == 2

    def test_aggregate_matches_mean_of_records(self):
        report = run_grid(_tiny_grid())
        for row in report.aggregates:
            vals = [
                r.sse_log
                for r in report.records
                if r.sweep_value == row.sweep_value and r.method == row.method and r.error is None
            ]
            assert abs(np.mean(vals) - row.mean_sse_log) < 1e-12

    def test_rerun_identical(self):
        r1 = run_grid(_tiny_grid())
        r2 = run_grid(_tiny_grid())
        assert r1 == r2

    def test_method_order_invariance(self):
        r1 = run_grid(_tiny_grid(methods=("ols", "oracle")))
        r2 = run_grid(_tiny_grid(methods=("oracle", "ols")))
        by_key_1 = {(c.sweep_value, c.method, c.replicate): c for c in r1.records}
        by_key_2 = {(c.sweep_value, c.method, c.replicate): c for c in r2.records}
        assert by_key_1 == by_key_2

    def test_workers_match_sequential(self):
        grid = _tiny_grid()
        assert run_grid(grid, workers=2) == run_grid(grid, workers=1)

    def test_workers_must_be_positive(self):
        with pytest.raises(DataError, match="workers"):
            run_grid(_tiny_grid(), workers=0)

    def test_failures_recorded_not_fatal(self):
        # n = 6 satisfies the first-stage bound (n > 5) but not the
        # covariance-regression bound (n > 6), so the interaction method
        # fails at step 3 while OLS succeeds
        bad = ExperimentGrid(
            base=SimulationConfig(n=6, m=8, p=2, k=1, seed=5),
            sweep_param="eta_dep",
            sweep_values=(0.1,),
            replicates=1,
            methods=("ols", "interaction_homo"),
            n_star=50,
        )
        report = run_grid(bad)
        assert report.failure_count() == 1
        failed = [r for r in report.records if r.error is not None]
        assert failed[0].method == "interaction_homo"
        assert "step 3" in failed[0].error
        ok = [r for r in report.records if r.error is None]
        assert ok[0].method == "ols" and ok[0].sse_log is not None

    def test_selected_policy_records_k(self):
        grid = ExperimentGrid(
            base=SimulationConfig(n=300, m=10, p=2, k=2, sigma_w=1.5, seed=5),
            sweep_param="eta_dep",
            sweep_values=(0.5,),
            replicates=1,
            methods=("interaction_homo", "non_interaction_homo"),
            k_policy="selected",
            k_star=2,
            n_star=50,
        )
        report = run_grid(grid)
        for rec in report.records:
            assert rec.error is None
            assert rec.k_used is not None and 1 <= rec.k_used <= 2

    def test_grid_validation(self):
        with pytest.raises(DataError):
            _tiny_grid(sweep_values=())
        with pytest.raises(DataError):
            _tiny_grid(replicates=0)
        with pytest.raises(DataError):
            _tiny_grid(methods=("gradient_boost",))
        with pytest.raises(DataError):
            _tiny_grid(sweep_param="n")
        with pytest.raises(DataError, match="n_iter"):
            _tiny_grid(n_iter=0)
        for k_star in (0, -1):
            with pytest.raises(DataError, match="k_star"):
                _tiny_grid(k_policy="selected", k_star=k_star)
        for n_star in (0, -1, None):
            with pytest.raises(DataError, match=f"^n_star must be a positive integer, got {n_star}$"):
                _tiny_grid(n_star=n_star)


class TestBundleScoring:
    """A bundle reads pmse_log from its test split's statistics, never from the split itself."""

    @pytest.mark.parametrize("noise, alpha", [("homoscedastic", 0.0), ("heteroscedastic", 6.0)])
    @pytest.mark.parametrize("n_star", [2 * CHUNK_ROWS, 2 * CHUNK_ROWS + 37, 100], ids=["chunks", "tail", "one"])
    def test_streamed_equals_pmse_log_on_the_split(self, noise, alpha, n_star):
        config = SimulationConfig(n=60, m=12, p=2, k=2, noise=noise, alpha=alpha, seed=31)
        _, truth = generate(config)
        split = split_statistics(config, truth, n_star)
        test = generate_test_split(config, truth, n_star)
        rng = np.random.default_rng(0)
        for theta in (truth.A, np.zeros_like(truth.A), truth.A + rng.standard_normal(truth.A.shape)):
            assert abs(bench._log_error(split.mean_squared_error(theta)) - pmse_log(theta, test)) <= 1e-12

    def test_bundle_cells_equal_pmse_log_on_the_split(self):
        grid = _tiny_grid(sweep_values=(0.5,), replicates=1, methods=METHODS, n_star=CHUNK_ROWS + 1)
        config = grid.config_for(0.5, 0)
        dataset, truth = generate(config)
        test = generate_test_split(config, truth, grid.n_star)
        outcomes = bench._run_dataset(dataset, METHODS, k=config.k, k_star=None, n_iter=grid.n_iter, truth=truth)
        records = run_grid(grid).records
        assert [r.method for r in records] == list(METHODS)
        for rec, (est, _) in zip(records, outcomes):
            assert rec.error is None, rec
            assert abs(rec.pmse_log - pmse_log(est.theta, test)) <= 1e-12, rec.method

    def test_theta_shape_checked(self):
        config = SimulationConfig(n=60, m=12, p=2, k=2, seed=31)
        split = split_statistics(config, generate(config)[1], 10)
        with pytest.raises(DimensionMismatchError, match=r"needs \(2, 12\)"):
            split.mean_squared_error(np.zeros((2, 11)))

    @pytest.mark.parametrize("bad", ["wrong m", "n_star 0"])
    def test_bad_split_fails_as_generate_test_split_does(self, monkeypatch, bad):
        grid = _tiny_grid(sweep_values=(0.5,), replicates=1, methods=("ols",), n_star=100)
        config = grid.config_for(0.5, 0)
        dataset, truth = generate(config)
        if bad == "wrong m":
            truth = generate(replace(config, m=12))[1]
        n_star = 0 if bad == "n_star 0" else grid.n_star
        with pytest.raises(DataError) as want:
            generate_test_split(config, truth, n_star)
        monkeypatch.setattr(bench, "generate", lambda _config: (dataset, truth))
        with pytest.raises(DataError) as got:
            if bad == "n_star 0":  # no grid holds n_star 0, so score the split directly
                split_statistics(config, truth, n_star)
            else:
                bench._run_bundle((grid, 0.5, 0))
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


class TestRunKSelection:
    def test_report_structure(self):
        base = SimulationConfig(n=60, m=12, p=2, k=2, eta_dep=0.5, seed=6)
        report = run_k_selection(base, [0.5, 1.5], k_star=4, replicates=3)
        assert len(report.records) == 2 * 3 * 2  # values x replicates x selectors
        dist = report.distribution(1.5, "interaction")
        assert sum(dist.values()) <= 3
        assert report.k_star == 4

    def test_k_hat_bounded_by_k_star(self):
        base = SimulationConfig(n=60, m=12, p=2, k=2, eta_dep=0.5, seed=7)
        report = run_k_selection(base, [1.0], k_star=2, replicates=3)
        for rec in report.records:
            if rec.k_hat is not None:
                assert 1 <= rec.k_hat <= 2

    def test_validation(self):
        base = SimulationConfig(n=60, m=12, p=2, k=2, seed=8)
        with pytest.raises(DataError):
            run_k_selection(base, [], k_star=3, replicates=2)
        with pytest.raises(DataError):
            run_k_selection(base, [1.0], k_star=0, replicates=2)
        with pytest.raises(DataError):
            run_k_selection(base, [1.0], k_star=3, replicates=0)
        with pytest.raises(DataError, match="workers"):
            run_k_selection(base, [1.0], k_star=3, replicates=2, workers=0)


class TestNoneCounts:
    """A count of None raises DataError at once, before any bundle or pool starts."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: _tiny_grid(replicates=None),
            lambda: run_grid(_tiny_grid(), workers=None),
            lambda: run_k_selection(SimulationConfig(n=60, m=12, p=2, k=2, seed=8), [1.0], k_star=3, replicates=None),
            lambda: run_k_selection(SimulationConfig(n=60, m=12, p=2, k=2, seed=8), [1.0], k_star=3, replicates=2, workers=None),
        ],
        ids=["grid replicates", "grid workers", "select-k replicates", "select-k workers"],
    )
    def test_none_rejected(self, monkeypatch, call):
        calls = []
        monkeypatch.setattr(bench, "_run_bundle", lambda job: calls.append(job))
        monkeypatch.setattr(bench, "_run_k_selection_cell", lambda job: calls.append(job))
        monkeypatch.setattr(bench, "ProcessPoolExecutor", lambda **kwargs: calls.append(kwargs))
        with pytest.raises(DataError, match="must be a positive integer, got None"):
            call()
        assert calls == []


class TestFoldIndices:
    def test_partition(self):
        folds = fold_indices(23, 5, seed=9)
        all_rows = np.sort(np.concatenate(folds))
        assert np.array_equal(all_rows, np.arange(23))
        sizes = sorted(len(f) for f in folds)
        assert sizes == [4, 4, 5, 5, 5]

    def test_deterministic(self):
        f1 = fold_indices(30, 10, seed=10)
        f2 = fold_indices(30, 10, seed=10)
        assert all(np.array_equal(a, b) for a, b in zip(f1, f2))

    def test_too_many_folds(self):
        with pytest.raises(DataError):
            fold_indices(5, 6, seed=0)

    def test_non_integer_folds_and_seed(self):
        for folds in (2.5, 3.0, True):
            with pytest.raises(DataError, match=f"^folds must be an integer, got {folds!r}$"):
                fold_indices(20, folds, seed=0)
        with pytest.raises(DataError, match="^seed must fit in an unsigned 64-bit integer$"):
            fold_indices(20, 3, seed=1.5)


class TestCrossValidate:
    def test_perfect_linear_data(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 2))
        theta = rng.standard_normal((2, 5))
        ds = Dataset(X=x, Y=x @ theta)
        report = cross_validate(ds, folds=4, methods=["ols"], k=1)
        # exact -inf when residuals cancel to zero, numerically tiny otherwise
        assert report.mean_pmse_log("ols") < -60.0

    def test_methods_and_folds_reported(self):
        cfg = SimulationConfig(n=60, m=10, p=2, k=2, seed=12)
        ds, _ = generate(cfg)
        report = cross_validate(
            ds, folds=3, methods=["ols", "interaction_homo"], k=2
        )
        assert report.methods() == ("ols", "interaction_homo")
        assert len(report.records) == 6
        for rec in report.records:
            assert np.isfinite(rec.pmse_log)

    def test_selected_policy_uses_training_split(self):
        cfg = SimulationConfig(n=80, m=10, p=2, k=2, seed=13)
        ds, _ = generate(cfg)
        report = cross_validate(
            ds, folds=4, methods=["non_interaction_homo"], k_star=3
        )
        for rec in report.records:
            assert 1 <= rec.k_used <= 3

    def test_oracle_rejected(self):
        cfg = SimulationConfig(n=60, m=10, p=2, k=2, seed=14)
        ds, _ = generate(cfg)
        with pytest.raises(DataError):
            cross_validate(ds, folds=3, methods=["oracle"], k=2)

    def test_large_m_small_n_interaction_beats_ols(self):
        # mirrors the large-m prediction finding: on a simulated m >> n
        # dataset the interaction method's CV prediction error is below OLS's
        cfg = SimulationConfig(n=100, m=500, p=2, k=3, eta_dep=0.5, seed=16)
        ds, _ = generate(cfg)
        report = cross_validate(
            ds, folds=10, methods=["ols", "interaction_homo"], k=3
        )
        assert report.mean_pmse_log("interaction_homo") < report.mean_pmse_log("ols")

    def test_failing_folds_recorded_not_fatal(self):
        # training splits of 6 rows pass the first stage (n > 5) but not the
        # covariance regression (n > 6): every interaction fold fails at step 3
        rng = np.random.default_rng(17)
        ds = Dataset(X=rng.standard_normal((8, 2)), Y=rng.standard_normal((8, 5)))
        report = cross_validate(
            ds, folds=4, methods=["ols", "interaction_homo"], k=1
        )
        assert len(report.records) == 8 and report.failure_count() == 4
        for rec in report.records:
            if rec.method == "ols":
                assert rec.error is None and np.isfinite(rec.pmse_log)
            else:
                assert rec.pmse_log is None and rec.k_used == 1
                assert rec.error.startswith("step 3 (covariance regression)")
        assert np.isfinite(report.mean_pmse_log("ols"))
        assert report.mean_pmse_log("interaction_homo") is None

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(methods=["ols", "interaction_homo"], k=0),
            dict(methods=["ols", "interaction_hetero"], k=2, n_iter=0),
            dict(methods=["ols", "lasso"], k=2),
            dict(methods=["ols", "interaction_homo"], k_star=0),
            dict(methods=["ols"], folds=2.5),
            dict(methods=["ols"], folds=True),
            dict(methods=["ols"], seed=1.5),
        ],
    )
    def test_argument_errors_raised_before_any_fit(self, monkeypatch, overrides):
        fits = []
        monkeypatch.setattr(regress, "fit_projected_ols", lambda *a, **kw: fits.append(a))
        ds, _ = generate(SimulationConfig(n=60, m=10, p=2, k=2, seed=18))
        with pytest.raises(DataError):
            cross_validate(ds, **{"folds": 3, **overrides})
        assert fits == []

    def test_integer_k_is_used(self):
        ds, _ = generate(SimulationConfig(n=60, m=10, p=2, k=2, seed=19))
        report = cross_validate(ds, 3, ["interaction_homo"], k=2)
        assert [rec.k_used for rec in report.records] == [2, 2, 2]
        assert report.failure_count() == 0

    def test_empty_methods_rejected(self):
        ds, _ = generate(SimulationConfig(n=60, m=10, p=2, k=2, seed=19))
        with pytest.raises(DataError, match="nonempty"):
            cross_validate(ds, 3, [], k=2)

