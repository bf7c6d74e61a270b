import numpy as np
import pytest
from conftest import assert_projector_properties, normal_equations, random_orthonormal, read_surfaces

from deconfound.errors import NumericalError, RankDeficientError
from deconfound.model import Dataset, ProjectionBasis
from deconfound.regress import (
    diagonal_weights,
    expand_interactions,
    fit_first_stage,
    fit_projected_ols,
    interaction_pairs,
    least_squares,
)
from deconfound.simulate import generate
from deconfound.model import SimulationConfig


class TestExpandInteractions:
    def test_column_count_p2(self):
        X = np.arange(8.0).reshape(4, 2)
        design = expand_interactions(X)
        assert design.shape[1] == 5

    def test_p1_squares(self):
        design = expand_interactions(np.array([[2.0], [3.0]]))
        assert np.array_equal(design, np.array([[2.0, 4.0], [3.0, 9.0]]))

    def test_p3_pair_order(self):
        design = expand_interactions(np.zeros((2, 3)))
        assert design.shape[1] == 9
        assert interaction_pairs(3) == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 3))
        for c in (0.5, -2.0, 3.7):
            scaled = expand_interactions(c * X)
            base = expand_interactions(X)
            p = 3
            assert np.allclose(scaled[:, p:], c**2 * base[:, p:])
            assert np.allclose(scaled[:, :p], c * base[:, :p])

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 2))
        assert np.array_equal(expand_interactions(X), expand_interactions(X))


class TestLeastSquares:
    def test_identity_design(self):
        targets = np.arange(6.0).reshape(3, 2)
        assert np.allclose(least_squares(np.eye(3), targets), targets)

    def test_noiseless_exact(self):
        design = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
        coef = np.array([[1.0], [-2.0]])
        recovered = least_squares(design, design @ coef)
        assert np.max(np.abs(recovered - coef)) < 1e-12

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(7)
        design = rng.standard_normal((50, 4))
        targets = rng.standard_normal((50, 3))
        direct = normal_equations(design, targets)
        assert np.max(np.abs(least_squares(design, targets) - direct)) < 1e-8

    def test_first_order_optimality(self):
        rng = np.random.default_rng(8)
        for n, q, t in ((30, 3, 2), (80, 6, 5), (15, 2, 1)):
            design = rng.standard_normal((n, q))
            targets = rng.standard_normal((n, t))
            coef = least_squares(design, targets)
            grad = design.T @ (targets - design @ coef)
            assert np.max(np.abs(grad)) < 1e-7 * np.linalg.norm(targets)

    def test_rank_deficient(self):
        for design, message in ((np.ones((6, 2)), "rank deficient"), (np.zeros((6, 2)), "identically zero")):
            with pytest.raises(RankDeficientError, match=message):
                least_squares(design, np.ones((6, 1)))

    def test_underdetermined(self):
        with pytest.raises(NumericalError):
            least_squares(np.ones((2, 3)), np.ones((2, 1)))


class TestFirstStage:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(11)
        n, p, m = 20, 2, 3
        X = rng.standard_normal((n, p))
        l1 = rng.standard_normal((p, m))
        l2 = rng.standard_normal((3, m))
        design = expand_interactions(X)
        Y = design @ np.vstack([l1, l2])
        fit = fit_first_stage(Dataset(X=X, Y=Y))
        assert np.max(np.abs(fit.L1 - l1)) < 1e-8
        assert np.max(np.abs(fit.L2 - l2)) < 1e-8
        assert np.max(np.abs(fit.residuals)) < 1e-8

    def test_n_equal_q_rejected(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((5, 2))  # q = 5 for p = 2
        Y = rng.standard_normal((5, 3))
        with pytest.raises(NumericalError):
            fit_first_stage(Dataset(X=X, Y=Y))

    def test_residuals_match_oracle_on_simulated_data(self):
        cfg = SimulationConfig(n=200, m=6, p=2, k=2, seed=31)
        ds, _ = generate(cfg)
        fit = fit_first_stage(ds)
        design = expand_interactions(ds.X)
        oracle_resid = ds.Y - design @ normal_equations(design, ds.Y)
        assert np.max(np.abs(fit.residuals - oracle_resid)) < 1e-8

    def test_residuals_orthogonal_to_design(self):
        cfg = SimulationConfig(n=150, m=7, p=2, k=2, seed=32)
        ds, _ = generate(cfg)
        fit = fit_first_stage(ds)
        design = expand_interactions(ds.X)
        assert np.max(np.abs(design.T @ fit.residuals)) < 1e-7 * np.linalg.norm(ds.Y)


class TestCovarianceRegression:
    def test_zero_residuals_give_zero_surfaces(self):
        rng = np.random.default_rng(13)
        n, p, m = 30, 2, 4
        surfaces = read_surfaces(np.zeros((n, m)), rng.standard_normal((n, p)))
        assert len(surfaces) == p + 1
        assert all(np.max(np.abs(mat)) < 1e-12 for mat in surfaces)

    def test_exact_polynomial_recovery(self):
        # eps_i = a + b * x_i gives eps eps^T = aa^T + (ab^T + ba^T) x + bb^T x^2
        rng = np.random.default_rng(14)
        n, m = 12, 3
        a = rng.standard_normal(m)
        b = rng.standard_normal(m)
        x = rng.standard_normal(n)
        eps = a[None, :] + x[:, None] * b[None, :]
        phi_b, phi_c0 = read_surfaces(eps, x[:, None])
        assert np.max(np.abs(phi_b - np.outer(a, a))) < 1e-8
        assert np.max(np.abs(phi_c0 - np.outer(b, b))) < 1e-8

    def test_matches_entrywise_normal_equations(self):
        cfg = SimulationConfig(n=60, m=4, p=2, k=1, seed=15)
        ds, _ = generate(cfg)
        eps = fit_first_stage(ds).residuals
        phi_b, phi_c0, phi_c1 = read_surfaces(eps, ds.X)
        design = np.column_stack([np.ones(ds.n), expand_interactions(ds.X)])
        for r in range(ds.m):
            for s in range(ds.m):
                beta = normal_equations(design, (eps[:, r] * eps[:, s])[:, None])[:, 0]
                # columns: 1, X_0, X_1, X_0 X_0, X_0 X_1, X_1 X_1
                assert abs(beta[0] - phi_b[r, s]) < 1e-8
                assert abs(beta[3] - phi_c0[r, s]) < 1e-8
                assert abs(beta[5] - phi_c1[r, s]) < 1e-8

    def test_population_target_homoscedastic(self):
        # phi_B should approach B^T Sigma_W B + sigma^2 I at large n
        cfg = SimulationConfig(n=20000, m=10, p=1, k=2, eta_dep=0.5, seed=2)
        ds, truth = generate(cfg)
        phi_b = read_surfaces(fit_first_stage(ds).residuals, ds.X)[0]
        target = truth.sigma_w**2 * truth.B.T @ truth.B + np.eye(truth.m)
        rel = np.linalg.norm(phi_b - target) / np.linalg.norm(target)
        assert rel < 0.1

    def test_permutation_invariance(self):
        cfg = SimulationConfig(n=80, m=4, p=2, k=1, seed=16)
        ds, _ = generate(cfg)
        eps = fit_first_stage(ds).residuals
        rng = np.random.default_rng(17)
        perm = rng.permutation(ds.n)
        for mat, mat_perm in zip(read_surfaces(eps, ds.X), read_surfaces(eps[perm], ds.X[perm])):
            assert np.max(np.abs(mat - mat_perm)) < 1e-8

    def test_sample_size_precondition(self):
        with pytest.raises(NumericalError, match="^covariance regression needs n > "):
            diagonal_weights(np.random.default_rng(0).standard_normal((6, 2)))


class TestProjectedOLS:
    def test_empty_basis_is_plain_ols(self):
        rng = np.random.default_rng(18)
        ds = Dataset(X=rng.standard_normal((30, 2)), Y=rng.standard_normal((30, 5)))
        est = fit_projected_ols(ds, ProjectionBasis.empty(5))
        direct = normal_equations(ds.X, ds.Y)
        assert np.max(np.abs(est.theta - direct)) < 1e-8

    def test_signal_preserved_when_basis_orthogonal_to_A(self):
        rng = np.random.default_rng(19)
        n, p, m, r = 40, 2, 6, 2
        basis_u = random_orthonormal(rng, m, r)
        # build A with rows orthogonal to the basis columns
        raw = rng.standard_normal((p, m))
        a = raw - (raw @ basis_u) @ basis_u.T
        X = rng.standard_normal((n, p))
        ds = Dataset(X=X, Y=X @ a)
        est = fit_projected_ols(ds, ProjectionBasis(U=basis_u))
        assert np.max(np.abs(est.theta - a)) < 1e-8

    def test_matches_normal_equations_on_projected_targets(self):
        rng = np.random.default_rng(20)
        n, p, m, r = 35, 3, 7, 3
        ds = Dataset(X=rng.standard_normal((n, p)), Y=rng.standard_normal((n, m)))
        basis = ProjectionBasis(U=random_orthonormal(rng, m, r))
        est = fit_projected_ols(ds, basis)
        direct = normal_equations(ds.X, ds.Y @ (np.eye(m) - basis.projector()))
        assert np.max(np.abs(est.theta - direct)) < 1e-8
        assert_projector_properties(basis)

    def test_needs_n_greater_than_p(self):
        rng = np.random.default_rng(21)
        ds = Dataset(X=rng.standard_normal((2, 2)), Y=rng.standard_normal((2, 3)))
        with pytest.raises(NumericalError):
            fit_projected_ols(ds, ProjectionBasis.empty(3))
