import numpy as np
import pytest
from conftest import assert_projector_properties, random_orthonormal

from deconfound.errors import DataError, DegenerateBasisWarning, NumericalError
from deconfound.spectral import (
    SpectrumSummary,
    build_projection,
    default_k_star,
    eigen_spectrum,
    fix_signs,
    hetero_pca,
    select_k,
    sin_theta,
    top_k_eigenvectors,
)


def _spectrum(vals, source="test"):
    return SpectrumSummary(eigenvalues=np.array(vals, dtype=float), source=source)


class TestTopKEigenvectors:
    def test_diagonal(self):
        u, spectrum = top_k_eigenvectors(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(spectrum.eigenvalues, [3.0, 2.0, 1.0])
        assert sin_theta(u, np.eye(3)[:, :2]) < 1e-12

    def test_rank_one(self):
        v = np.array([0.6, 0.8, 0.0])
        u, _ = top_k_eigenvectors(np.outer(v, v), 1)
        assert min(np.max(np.abs(u[:, 0] - v)), np.max(np.abs(u[:, 0] + v))) < 1e-12

    def test_matches_constructed_eigenstructure(self):
        rng = np.random.default_rng(42)
        m, k = 20, 4
        q = random_orthonormal(rng, m, m)
        vals = np.sort(rng.uniform(1.0, 10.0, m))[::-1]
        vals[k - 1] = vals[k] + 1.0  # enforce a clear gap
        s = q @ np.diag(vals) @ q.T
        u, spectrum = top_k_eigenvectors(s, k)
        assert sin_theta(u, q[:, :k]) < 1e-8
        assert np.allclose(spectrum.eigenvalues, np.sort(vals)[::-1], atol=1e-10)

    def test_orthonormal_output(self):
        rng = np.random.default_rng(43)
        s = rng.standard_normal((9, 9))
        u, _ = top_k_eigenvectors(s + s.T, 3)
        assert np.max(np.abs(u.T @ u - np.eye(3))) < 1e-10

    def test_k_too_large(self):
        with pytest.raises(NumericalError):
            top_k_eigenvectors(np.eye(3), 4)

    def test_sign_convention(self):
        u, _ = top_k_eigenvectors(np.diag([2.0, 1.0]), 2)
        assert u[0, 0] > 0 and u[1, 1] > 0


def _hetero_pca_svd_reference(S: np.ndarray, k: int, n_iter: int) -> np.ndarray:
    """HeteroPCA as first written: one full SVD per step, copying S each time."""
    sym = (S + S.T) / 2.0
    current = sym.copy()
    np.fill_diagonal(current, 0.0)
    for _ in range(n_iter):
        u, s, vt = np.linalg.svd(current)
        imputed = np.einsum("ij,j,ji->i", u[:, :k], s[:k], vt[:k, :])
        current = sym.copy()
        np.fill_diagonal(current, imputed)
    u, _, _ = np.linalg.svd(current)
    return fix_signs(u[:, :k])


def _low_rank_plus_noise(seed: int, m: int, eigenvalues) -> np.ndarray:
    """U diag(eigenvalues) U^T plus a heteroscedastic diagonal and a small symmetric perturbation."""
    rng = np.random.default_rng(seed)
    u = random_orthonormal(rng, m, len(eigenvalues))
    noise = 0.05 * rng.standard_normal((m, m))
    return u @ np.diag(eigenvalues) @ u.T + np.diag(rng.uniform(0.0, 3.0, m)) + noise + noise.T


def _hadamard_columns(m: int, k: int) -> np.ndarray:
    """Columns 1..k of the Sylvester-Hadamard orthonormal basis (m a power of 2)."""
    h = np.array([[1.0]])
    while h.shape[0] < m:
        h = np.block([[h, h], [h, -h]])
    return h[:, 1 : 1 + k] / np.sqrt(m)


class TestHeteroPCA:
    @pytest.mark.parametrize("n_iter", [0, 1, 5])
    @pytest.mark.parametrize(
        "seed, eigenvalues, k",
        [
            (60, [20.0, 14.0, 9.0], 3),
            (61, [12.0, 7.0], 2),
            # largest |lambda| is negative: ordering by algebraic value would drop it
            (62, [-25.0, 15.0, 10.0], 2),
            (63, [-25.0, 15.0, 10.0], 3),
        ],
    )
    def test_matches_svd_reference(self, seed, eigenvalues, k, n_iter):
        s = _low_rank_plus_noise(seed, 40, eigenvalues)
        got = hetero_pca(s, k, n_iter)
        ref = _hetero_pca_svd_reference(s, k, n_iter)
        assert got.shape == (40, k)
        assert sin_theta(got, ref) <= 1e-10
        assert np.max(np.abs(got.T @ got - np.eye(k))) < 1e-12

    def test_argument_unchanged_and_read_only_accepted(self):
        s = _low_rank_plus_noise(64, 30, [9.0, 6.0, 4.0])
        s[0, 1] += 0.5  # asymmetric, so the symmetrized copy differs from s
        before = s.copy()
        s.setflags(write=False)
        got = hetero_pca(s, 3, 5)
        assert np.array_equal(s, before)
        assert sin_theta(got, _hetero_pca_svd_reference(before, 3, 5)) <= 1e-10

    def test_zero_iterations_on_consistent_diagonal(self):
        # flat-leverage eigenvectors give a constant diagonal, so deleting it
        # shifts the spectrum without rotating the leading subspace
        m, k = 16, 3
        u = _hadamard_columns(m, k)
        s = u @ np.diag([5.0, 4.0, 3.0]) @ u.T
        got = hetero_pca(s, k, 0)
        ref, _ = top_k_eigenvectors(s, k)
        assert sin_theta(got, ref) < 1e-8

    def test_beats_pca_under_diagonal_contamination(self):
        rng = np.random.default_rng(45)
        m, k = 30, 3
        u = random_orthonormal(rng, m, k)
        base = u @ np.diag([20.0, 15.0, 10.0]) @ u.T
        delta = np.diag(np.linspace(0.05, 5.0, m))  # condition spread 100
        s = base + delta
        hp = hetero_pca(s, k, 10)
        pca, _ = top_k_eigenvectors(s, k)
        assert sin_theta(hp, u) < sin_theta(pca, u)

    def test_identity_shift_leaves_subspace(self):
        rng = np.random.default_rng(46)
        m, k = 15, 2
        u = random_orthonormal(rng, m, k)
        base = u @ np.diag([8.0, 6.0]) @ u.T
        shifted = base + 0.5 * np.eye(m)
        pca_shifted, _ = top_k_eigenvectors(shifted, k)
        hp = hetero_pca(shifted, k, 100)
        assert sin_theta(pca_shifted, u) < 1e-6
        assert sin_theta(hp, u) < 1e-6
        assert sin_theta(hp, pca_shifted) < 1e-6

    def test_negative_iterations_rejected(self):
        with pytest.raises(DataError):
            hetero_pca(np.eye(3), 1, -1)

    def test_k_too_large(self):
        with pytest.raises(NumericalError):
            hetero_pca(np.eye(3), 4, 1)


class TestBuildProjection:
    def test_single_block_spans_itself(self):
        rng = np.random.default_rng(47)
        u = random_orthonormal(rng, 10, 3)
        basis = build_projection([u])
        assert basis.r == 3
        assert sin_theta(basis.U, u) < 1e-10
        assert_projector_properties(basis)

    def test_duplicate_blocks_warn_but_return_full_width(self):
        rng = np.random.default_rng(48)
        u = random_orthonormal(rng, 10, 2)
        with pytest.warns(DegenerateBasisWarning):
            basis = build_projection([u, u])
        assert basis.r == 4
        assert_projector_properties(basis)

    def test_matches_explicit_projector_formula(self):
        rng = np.random.default_rng(49)
        m, k = 12, 2
        blocks = [random_orthonormal(rng, m, k), random_orthonormal(rng, m, k)]
        basis = build_projection(blocks)
        stacked = np.hstack(blocks).T  # rows span the target space
        brute = stacked.T @ np.linalg.inv(stacked @ stacked.T) @ stacked
        assert np.max(np.abs(basis.projector() - brute)) < 1e-8

    def test_block_order_invariance(self):
        rng = np.random.default_rng(50)
        blocks = [random_orthonormal(rng, 9, 2), random_orthonormal(rng, 9, 3)]
        b1 = build_projection(blocks)
        b2 = build_projection(blocks[::-1])
        assert sin_theta(b1.U, b2.U) < 1e-8

    def test_r_exceeding_m_rejected(self):
        rng = np.random.default_rng(51)
        with pytest.raises(NumericalError):
            build_projection([random_orthonormal(rng, 4, 3), random_orthonormal(rng, 4, 3)])


class TestSelectK:
    def test_common_dominant_gap(self):
        spectra = [_spectrum([100.0, 50.0, 25.0, 1.0, 0.9, 0.8]) for _ in range(3)]
        assert select_k(spectra, 4) == 3

    def test_single_dominant_first_gap(self):
        spectra = [_spectrum([100.0, 1.0, 0.9, 0.8, 0.7]) for _ in range(3)]
        assert select_k(spectra, 3) == 1

    def test_majority_vote(self):
        # votes (2, 3, 3) -> 3
        s2 = _spectrum([100.0, 60.0, 1.0, 0.9, 0.8])
        s3 = _spectrum([100.0, 60.0, 30.0, 1.0, 0.9])
        assert select_k([s2, s3, s3], 3) == 3

    def test_tie_breaks_to_smallest(self):
        s1 = _spectrum([100.0, 1.0, 0.9, 0.8, 0.7])
        s2 = _spectrum([100.0, 60.0, 1.0, 0.9, 0.8])
        s3 = _spectrum([100.0, 60.0, 30.0, 1.0, 0.9])
        assert select_k([s1, s2, s3], 3) == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(52)
        base = [np.sort(rng.uniform(0.5, 50.0, 8))[::-1] for _ in range(3)]
        spectra = [_spectrum(vals) for vals in base]
        ref = select_k(spectra, 5)
        scaled = [_spectrum(vals * factor) for vals, factor in zip(base, (3.0, 0.25, 17.0))]
        assert select_k(scaled, 5) == ref

    def test_nonpositive_eigenvalue_error_names_spectrum(self):
        good = _spectrum([10.0, 5.0, 1.0, 0.5], source="phi_B")
        bad = _spectrum([10.0, 5.0, -0.1, -0.2], source="phi_C[0]")
        with pytest.raises(NumericalError, match="phi_C"):
            select_k([good, bad], 2)

    def test_short_spectrum_rejected(self):
        with pytest.raises(DataError):
            select_k([_spectrum([3.0, 2.0])], 2)

    def test_default_k_star(self):
        assert default_k_star(1000, 500) == 250
        assert default_k_star(100, 25) == 12
        assert default_k_star(3, 3) == 1


class TestSinTheta:
    def test_same_span_is_zero(self):
        rng = np.random.default_rng(53)
        u = random_orthonormal(rng, 8, 3)
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert sin_theta(u, u @ rot) < 1e-10

    def test_orthogonal_spans(self):
        u = np.eye(6)[:, :2]
        v = np.eye(6)[:, 2:4]
        assert abs(sin_theta(u, v) - np.sqrt(2.0)) < 1e-12


class TestEigenSpectrum:
    def test_sorted_nonincreasing(self):
        rng = np.random.default_rng(54)
        s = rng.standard_normal((7, 7))
        spectrum = eigen_spectrum(s + s.T, "x")
        assert np.all(np.diff(spectrum.eigenvalues) <= 0)
        assert spectrum.eigenvalues.size == 7
