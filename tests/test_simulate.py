import numpy as np
import pytest
from dataclasses import replace

from deconfound.errors import DataError, DimensionMismatchError
from deconfound.model import SimulationConfig
from deconfound.simulate import (
    CHUNK_ROWS,
    _draw_noise,
    _draw_tau2,
    _noise_chunks,
    _rng,
    ar_covariance,
    generate,
    generate_test_split,
    structural_response,
)


class TestDesignCovariance:
    def test_p2_example(self):
        assert np.allclose(ar_covariance(2), [[1.0, -0.5], [-0.5, 1.0]])

    def test_alternating_signs(self):
        sigma = ar_covariance(4)
        assert sigma[0, 1] == -0.5
        assert sigma[0, 2] == 0.25
        assert sigma[0, 3] == -0.125
        assert np.allclose(np.diag(sigma), 1.0)
        assert np.allclose(sigma, sigma.T)


class TestDeterminism:
    def test_same_config_bit_identical(self):
        cfg = SimulationConfig(n=60, m=12, p=2, k=2, seed=7)
        ds1, truth1 = generate(cfg)
        ds2, truth2 = generate(cfg)
        assert np.array_equal(ds1.X, ds2.X)
        assert np.array_equal(ds1.Y, ds2.Y)
        assert np.array_equal(truth1.A, truth2.A)

    def test_changing_n_preserves_parameter_draws(self):
        small = SimulationConfig(n=50, m=12, p=2, k=2, seed=8)
        large = replace(small, n=500)
        _, truth_small = generate(small)
        _, truth_large = generate(large)
        assert np.array_equal(truth_small.A, truth_large.A)
        assert np.array_equal(truth_small.B, truth_large.B)
        assert np.array_equal(truth_small.psi, truth_large.psi)
        for c1, c2 in zip(truth_small.C, truth_large.C):
            assert np.array_equal(c1, c2)

    def test_different_seeds_differ(self):
        cfg = SimulationConfig(n=60, m=12, p=2, k=2, seed=7)
        other = replace(cfg, seed=9)
        assert not np.array_equal(generate(cfg)[0].Y, generate(other)[0].Y)


class TestParameterDraws:
    def test_eta_zero_gives_zero_psi(self):
        cfg = SimulationConfig(n=50, m=12, p=2, k=2, eta_dep=0.0, seed=10)
        _, truth = generate(cfg)
        assert np.max(np.abs(truth.psi)) == 0.0

    def test_eta_zero_decouples_hidden_from_observed(self):
        cfg = SimulationConfig(n=50000, m=8, p=2, k=2, eta_dep=0.0, seed=11)
        ds, truth = generate(cfg)
        # with psi = 0, Z equals the W substream draw exactly
        w = truth.sigma_w * _rng(cfg.seed, "W").standard_normal((cfg.n, cfg.k))
        cross = ds.X.T @ w / cfg.n
        assert np.max(np.abs(cross)) < 0.05

    def test_second_param_stddev_scales_spread(self):
        base = SimulationConfig(n=50, m=12, p=2, k=2, seed=12)
        alt = replace(base, second_param="stddev")
        _, truth_var = generate(base)
        _, truth_sd = generate(alt)
        # same underlying standard normals: (A - 0.5) scales by 0.1/sqrt(0.1)
        ratio = (truth_sd.A - 0.5) / (truth_var.A - 0.5)
        assert np.allclose(ratio, 0.1 / np.sqrt(0.1))


class TestNoise:
    def test_alpha_zero_gives_uniform_variances(self):
        cfg = SimulationConfig(n=50, m=12, p=2, k=2, noise="heteroscedastic", alpha=0.0, seed=13)
        tau2 = _draw_tau2(cfg)
        assert np.allclose(tau2, cfg.p + 1)

    def test_tau2_sums_to_m_times_p_plus_one(self):
        # the printed profile normalizes v^alpha within the sum, so the total
        # is m(p+1); kept as printed rather than renormalized
        cfg = SimulationConfig(n=50, m=30, p=2, k=2, noise="heteroscedastic", alpha=6.0, seed=14)
        tau2 = _draw_tau2(cfg)
        assert abs(tau2.sum() - cfg.m * (cfg.p + 1)) < 1e-9
        _, truth = generate(cfg)
        assert np.array_equal(truth.tau2, tau2)

    def test_homoscedastic_truth_has_unit_tau2(self):
        cfg = SimulationConfig(n=50, m=12, p=2, k=2, seed=15)
        _, truth = generate(cfg)
        assert np.array_equal(truth.tau2, np.ones(cfg.m))


class TestConditionalMean:
    def test_structural_response_matches_model(self):
        cfg = SimulationConfig(n=20, m=10, p=2, k=2, seed=16)
        _, truth = generate(cfg)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 2))
        z = x @ truth.psi  # W = 0
        got = structural_response(x, z, truth)
        for i in range(5):
            zi = truth.psi.T @ x[i]
            want = truth.A.T @ x[i] + truth.B.T @ zi
            for j in range(2):
                want = want + truth.C[j].T @ (x[i, j] * zi)
            assert np.max(np.abs(got[i] - want)) < 1e-12

    def test_generator_equals_structural_response_plus_noise(self):
        cfg = SimulationConfig(n=40, m=10, p=2, k=2, seed=17)
        ds, truth = generate(cfg)
        w = truth.sigma_w * _rng(cfg.seed, "W").standard_normal((cfg.n, cfg.k))
        e = _rng(cfg.seed, "E").standard_normal((cfg.n, cfg.m))
        z = ds.X @ truth.psi + w
        assert np.array_equal(ds.Y, structural_response(ds.X, z, truth) + e)

    @pytest.mark.parametrize("noise, alpha, p", [("homoscedastic", 0.0, 2), ("heteroscedastic", 6.0, 3)])
    def test_bitwise_equal_to_literal_model(self, noise, alpha, p):
        # Y = X A + Z B + sum_j (X_j Z) C_j + E, evaluated left to right on the
        # same substreams, for the training draws and for the test split
        cfg = SimulationConfig(n=70, m=9, p=p, k=2, noise=noise, alpha=alpha, seed=26)
        ds, truth = generate(cfg)
        test = generate_test_split(cfg, truth, 90)
        chol = np.linalg.cholesky(ar_covariance(p))
        scale = np.sqrt(truth.tau2)
        for got, n, blocks in ((ds, cfg.n, ("X", "W", "E")), (test, 90, ("X_test", "W_test", "E_test"))):
            x = _rng(cfg.seed, blocks[0]).standard_normal((n, p)) @ chol.T
            z = x @ truth.psi + truth.sigma_w * _rng(cfg.seed, blocks[1]).standard_normal((n, cfg.k))
            e = _rng(cfg.seed, blocks[2]).standard_normal((n, cfg.m)) * scale
            y = x @ truth.A + z @ truth.B
            for j in range(p):
                y = y + (x[:, j : j + 1] * z) @ truth.C[j]
            assert np.array_equal(got.X, x)
            assert np.array_equal(got.Y, y + e)


class TestTestSplit:
    def test_reproducible(self):
        cfg = SimulationConfig(n=50, m=12, p=2, k=2, seed=18)
        _, truth = generate(cfg)
        t1 = generate_test_split(cfg, truth, 100)
        t2 = generate_test_split(cfg, truth, 100)
        assert np.array_equal(t1.Y, t2.Y)

    def test_default_size(self):
        cfg = SimulationConfig(n=50, m=12, p=2, k=2, seed=19)
        _, truth = generate(cfg)
        assert generate_test_split(cfg, truth).n == 5000

    def test_independent_of_training_draws(self):
        cfg = SimulationConfig(n=50, m=12, p=2, k=2, seed=20)
        ds, truth = generate(cfg)
        test = generate_test_split(cfg, truth, 50)
        assert not np.array_equal(ds.X, test.X)

    def test_truth_parameters_flow_through(self):
        cfg = SimulationConfig(n=50, m=12, p=2, k=2, seed=21)
        _, truth = generate(cfg)
        _, other_truth = generate(replace(cfg, seed=22))
        t1 = generate_test_split(cfg, truth, 50)
        t2 = generate_test_split(cfg, other_truth, 50)
        # identical X substream, different parameters -> different responses
        assert np.array_equal(t1.X, t2.X)
        assert not np.array_equal(t1.Y, t2.Y)

    def test_dimension_mismatch(self):
        cfg = SimulationConfig(n=50, m=12, p=2, k=2, seed=23)
        _, truth = generate(cfg)
        with pytest.raises(DimensionMismatchError):
            generate_test_split(replace(cfg, m=16), truth, 50)

    def test_n_star_positive(self):
        cfg = SimulationConfig(n=50, m=12, p=2, k=2, seed=24)
        _, truth = generate(cfg)
        with pytest.raises(DataError):
            generate_test_split(cfg, truth, 0)

    def test_heteroscedastic_profile_reused(self):
        cfg = SimulationConfig(n=50, m=12, p=2, k=2, noise="heteroscedastic", alpha=6.0, seed=25)
        _, truth = generate(cfg)
        test = generate_test_split(cfg, truth, 200000)
        resid = test.Y - structural_response(
            test.X, test.X @ truth.psi + truth.sigma_w * _rng(cfg.seed, "W_test").standard_normal((test.n, truth.k)), truth
        )
        emp = resid.var(axis=0)
        assert np.max(np.abs(emp / truth.tau2 - 1.0)) < 0.1


class TestNoiseChunks:
    @pytest.mark.parametrize("noise, alpha", [("homoscedastic", 0.0), ("heteroscedastic", 6.0)])
    @pytest.mark.parametrize("n", [2 * CHUNK_ROWS, 2 * CHUNK_ROWS + 37, 100], ids=["chunks", "tail", "one"])
    def test_chunks_are_the_one_shot_draw(self, noise, alpha, n):
        cfg = SimulationConfig(n=50, m=9, p=2, k=2, noise=noise, alpha=alpha, seed=27)
        _, truth = generate(cfg)
        chunks = [(start, rows.copy()) for start, rows in _noise_chunks(cfg, truth.tau2, n, "E_test")]
        assert [start for start, _ in chunks] == list(range(0, n, CHUNK_ROWS))
        one_shot = _draw_noise(cfg, truth.tau2, n, "E_test")
        assert np.array_equal(np.vstack([rows for _, rows in chunks]), one_shot)
