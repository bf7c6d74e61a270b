import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import assert_projector_properties, random_orthonormal

import deconfound
from deconfound.errors import DataError, DegenerateBasisWarning, NonFiniteError, NumericalError
from deconfound.spectral import (
    BLOCK_OVERSAMPLE,
    TOP_K_MIN_WIDTHS,
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
        u, vals = top_k_eigenvectors(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(vals, [3.0, 2.0, 1.0])
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
        u, found = top_k_eigenvectors(s, k)
        assert sin_theta(u, q[:, :k]) < 1e-8
        assert np.allclose(found, np.sort(vals)[::-1], atol=1e-10)

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


def _hetero_pca_eigh_reference(S: np.ndarray, k: int, n_iter: int) -> np.ndarray:
    """HeteroPCA with one full eigh of the iterate per step, ordered by |lambda|."""
    S = np.asarray(S, dtype=float)
    current = (S + S.T) / 2.0
    np.fill_diagonal(current, 0.0)
    for step in range(n_iter + 1):
        vals, vecs = np.linalg.eigh(current)
        top = np.argsort(np.abs(vals))[: -k - 1 : -1]
        if step < n_iter:
            np.fill_diagonal(current, np.square(vecs[:, top]) @ vals[top])
    return fix_signs(vecs[:, top])


def _recording_eigh(monkeypatch) -> list:
    """Record the shape of every matrix np.linalg.eigh decomposes."""
    shapes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return shapes


class TestHeteroPCABlockIteration:
    @pytest.mark.parametrize("n_iter", [0, 1, 5])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize(
        "m, eigenvalues",
        [
            (120, [40.0, 30.0, 22.0, 16.0, 12.0, 9.0]),
            (500, [90.0, 70.0, 55.0, 45.0, 38.0, 32.0]),
            # largest |lambda| is negative: ordering by algebraic value would drop it
            (120, [-40.0, 30.0, 22.0, -16.0, 12.0, 9.0]),
            (500, [-90.0, 70.0, 55.0, -45.0, 38.0, 32.0]),
        ],
    )
    def test_matches_eigh_reference(self, monkeypatch, m, eigenvalues, k, n_iter):
        s = _low_rank_plus_noise(70 + m + k, m, eigenvalues)
        ref = _hetero_pca_eigh_reference(s, k, n_iter)
        shapes = _recording_eigh(monkeypatch)
        got = hetero_pca(s, k, n_iter)
        assert (m, m) not in shapes  # every step was certified
        assert got.shape == (m, k)
        assert sin_theta(got, ref) <= 1e-10
        assert np.max(np.abs(got.T @ got - np.eye(k))) < 1e-12

    def test_tie_at_k_takes_the_exact_loop(self, monkeypatch):
        # the eigenvalues sum to 0, so the flat-leverage Hadamard columns give a
        # zero diagonal and the iterate keeps the tie |lambda_3| = |lambda_4| = 6
        m, k = 128, 3
        u = _hadamard_columns(m, 4)
        s = u @ np.diag([10.0, -10.0, 6.0, -6.0]) @ u.T
        shapes = _recording_eigh(monkeypatch)
        got = hetero_pca(s, k, 5)
        assert shapes.count((m, m)) == 6
        monkeypatch.undo()
        assert np.array_equal(got, _hetero_pca_eigh_reference(s, k, 5))

    @pytest.mark.parametrize("k, n_iter", [(1, 0), (3, 5), (5, 20)])
    def test_small_m_is_the_exact_loop(self, k, n_iter):
        s = _low_rank_plus_noise(80 + k, 25, [20.0, -14.0, 9.0, 6.0, 4.0])
        assert np.array_equal(hetero_pca(s, k, n_iter), _hetero_pca_eigh_reference(s, k, n_iter))

    def test_no_m_by_m_eigh_at_m_500(self, monkeypatch):
        s = _low_rank_plus_noise(90, 500, [60.0, 45.0, 30.0])
        shapes = _recording_eigh(monkeypatch)
        hetero_pca(s, 3, 5)
        assert shapes and all(shape[0] < 500 for shape in shapes)

    def test_independent_of_the_blas_thread_count(self, tmp_path):
        # one fixed m = 500 input, decomposed in two processes that differ
        # only in their BLAS thread count
        np.save(tmp_path / "s.npy", _low_rank_plus_noise(91, 500, [60.0, 45.0, 30.0]))
        src = os.path.dirname(os.path.dirname(deconfound.__file__))
        code = (
            "import sys, numpy as np; from deconfound.spectral import hetero_pca; "
            "np.save(sys.argv[2], hetero_pca(np.load(sys.argv[1]), 3, 5))"
        )
        bases = []
        for threads in ("1", "2"):
            out = tmp_path / f"u{threads}.npy"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "PYTHONPATH": src}
            subprocess.run([sys.executable, "-c", code, str(tmp_path / "s.npy"), str(out)], env=env, check=True)
            bases.append(np.load(out))
        assert sin_theta(*bases) <= 1e-10


def _operator(S: np.ndarray):
    """hetero_pca's operator form of S: (V -> S V, diag S) of the symmetrized S."""
    sym = (S + S.T) / 2.0
    return sym.__matmul__, np.diag(sym).copy()


def _refusing_ritz(monkeypatch, certified: int) -> list:
    """Make every _certified_ritz call after the first `certified` ones return None; record each call."""
    calls = []
    ritz = deconfound.spectral._certified_ritz

    def refusing(*args, **kwargs):
        calls.append(1)
        return ritz(*args, **kwargs) if len(calls) <= certified else None

    monkeypatch.setattr(deconfound.spectral, "_certified_ritz", refusing)
    return calls


class TestHeteroPCAOperatorForm:
    """hetero_pca(S, k, n_iter, operator) with S a function that builds the m x m matrix."""

    @pytest.mark.parametrize("n_iter", [0, 5])
    def test_certified_chain_never_builds_the_matrix(self, n_iter):
        s = _low_rank_plus_noise(130, 500, [60.0, -45.0, 30.0])
        got = hetero_pca(lambda: pytest.fail("built the m x m matrix"), 3, n_iter, _operator(s))
        assert sin_theta(got, _hetero_pca_eigh_reference(s, 3, n_iter)) <= 1e-10

    @pytest.mark.parametrize("step", [1, 3])
    def test_a_refused_step_resumes_on_the_iterate(self, monkeypatch, step):
        # steps 0..step-1 are certified and step `step` is refused: it and every
        # later step are eighs of the iterate, not a restart from step 0
        s = _low_rank_plus_noise(131, 500, [60.0, -45.0, 30.0])
        before = s.copy()
        calls = _refusing_ritz(monkeypatch, step)
        builds = []
        got = hetero_pca(lambda: builds.append(1) or s, 3, 5, _operator(s))
        assert len(calls) == step + 1 and builds == [1]
        calls.clear()
        shapes = _recording_eigh(monkeypatch)
        dense = hetero_pca(s, 3, 5)
        assert len(calls) == step + 1 and shapes.count((500, 500)) == 6 - step
        assert sin_theta(got, dense) <= 1e-10
        assert np.array_equal(s, before)

    def test_below_the_size_rule_builds_the_matrix_at_step_0(self, monkeypatch):
        s = _low_rank_plus_noise(132, 25, [20.0, -14.0, 9.0])
        calls = _refusing_ritz(monkeypatch, 100)
        got = hetero_pca(lambda: s, 3, 5, _operator(s))
        assert not calls and np.array_equal(got, _hetero_pca_eigh_reference(s, 3, 5))


class TestZeroSurfaces:
    """A zero matrix above both size rules takes one block product, then the eigh result."""

    @pytest.fixture
    def products(self, monkeypatch):
        products = []
        ritz = deconfound.spectral._certified_ritz

        def counted_ritz(apply, *args, **kwargs):
            products.append(0)

            def counted(v):
                products[-1] += 1
                return apply(v)

            return ritz(counted, *args, **kwargs)

        monkeypatch.setattr(deconfound.spectral, "_certified_ritz", counted_ritz)
        return products

    def test_top_k(self, products):
        s = np.zeros((500, 500))
        got, vals = top_k_eigenvectors(s, 3)
        ref, ref_vals = _top_k_eigh_reference(s, 3)
        assert products == [1]
        assert np.array_equal(got, ref) and np.array_equal(vals, ref_vals)

    def test_hetero_pca(self, products):
        s = np.zeros((500, 500))
        assert np.array_equal(hetero_pca(s, 3, 5), _hetero_pca_eigh_reference(s, 3, 5))
        assert np.array_equal(hetero_pca(lambda: s, 3, 5, _operator(s)), _hetero_pca_eigh_reference(s, 3, 5))
        assert products == [1, 1]


def _top_k_eigh_reference(S: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenvectors and the whole nonincreasing spectrum from one full eigh."""
    S = np.asarray(S, dtype=float)
    vals, vecs = np.linalg.eigh((S + S.T) / 2.0)
    order = np.argsort(vals)[::-1]
    return fix_signs(vecs[:, order[:k]]), vals[order]


def _first_certified_size(k: int) -> int:
    return TOP_K_MIN_WIDTHS * (k + BLOCK_OVERSAMPLE)


class TestTopKBlockIteration:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("size", ["first certified", 500])
    def test_matches_eigh_reference(self, monkeypatch, size, k):
        m = _first_certified_size(k) if size == "first certified" else size
        s = _low_rank_plus_noise(30 + k, m, [90.0, 70.0, 55.0, 45.0, 38.0, 32.0])
        ref, ref_vals = _top_k_eigh_reference(s, k)
        shapes = _recording_eigh(monkeypatch)
        got, vals = top_k_eigenvectors(s, k)
        assert (m, m) not in shapes  # certified
        assert got.shape == (m, k) and vals.shape == (k,)
        assert sin_theta(got, ref) <= 1e-10
        assert np.allclose(vals, ref_vals[:k], rtol=1e-10, atol=0.0)
        assert np.max(np.abs(got.T @ got - np.eye(k))) < 1e-12

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_negative_largest_eigenvalue_takes_eigh(self, monkeypatch, k):
        # the k largest |lambda| hold -90, which is not among the algebraic top k
        m = _first_certified_size(k)
        s = _low_rank_plus_noise(40 + k, m, [-90.0, 70.0, 55.0, 45.0, 38.0, 32.0])
        shapes = _recording_eigh(monkeypatch)
        got, vals = top_k_eigenvectors(s, k)
        assert shapes.count((m, m)) == 1
        monkeypatch.undo()
        ref, ref_vals = _top_k_eigh_reference(s, k)
        assert np.array_equal(got, ref) and np.array_equal(vals, ref_vals)

    @pytest.mark.parametrize("tied", [6.0, -6.0])
    def test_tie_at_k_takes_eigh(self, monkeypatch, tied):
        # |lambda_3| = |lambda_4| = 6, so no block separates the top 3
        m, k = 256, 3
        assert m >= _first_certified_size(k)
        u = _hadamard_columns(m, 4)
        s = u @ np.diag([10.0, 8.0, 6.0, tied]) @ u.T
        shapes = _recording_eigh(monkeypatch)
        got, vals = top_k_eigenvectors(s, k)
        assert shapes.count((m, m)) == 1
        monkeypatch.undo()
        ref, ref_vals = _top_k_eigh_reference(s, k)
        assert np.array_equal(got, ref) and np.array_equal(vals, ref_vals)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_below_the_size_rule_is_eigh(self, k):
        s = _low_rank_plus_noise(50 + k, _first_certified_size(k) - 1, [90.0, 70.0, 55.0, 45.0, 38.0, 32.0])
        got, vals = top_k_eigenvectors(s, k)
        ref, ref_vals = _top_k_eigh_reference(s, k)
        assert np.array_equal(got, ref) and np.array_equal(vals, ref_vals)

    def test_non_finite_product_is_refused_at_once(self, monkeypatch):
        # finite, but its block products overflow: no sweep can be certified
        a = np.full((208, 208), 0.5e308)
        block = deconfound.spectral._start_block(208, 3, TOP_K_MIN_WIDTHS)
        qrs = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *args: qrs.append(1) or qr(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert deconfound.spectral._certified_ritz(a.__matmul__, 3, block) is None
        assert not qrs

    def test_independent_of_the_blas_thread_count(self, tmp_path):
        np.save(tmp_path / "s.npy", _low_rank_plus_noise(92, 500, [60.0, 45.0, 30.0]))
        src = os.path.dirname(os.path.dirname(deconfound.__file__))
        code = (
            "import sys, numpy as np; from deconfound.spectral import top_k_eigenvectors; "
            "np.save(sys.argv[2], top_k_eigenvectors(np.load(sys.argv[1]), 3)[0])"
        )
        bases = []
        for threads in ("1", "2"):
            out = tmp_path / f"u{threads}.npy"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "PYTHONPATH": src}
            subprocess.run([sys.executable, "-c", code, str(tmp_path / "s.npy"), str(out)], env=env, check=True)
            bases.append(np.load(out))
        assert sin_theta(*bases) <= 1e-10


class TestArgumentChecks:
    """The public step-4 functions reject bad arguments with a DeconfoundError."""

    @pytest.mark.parametrize("k", [2.5, True, np.float64(2.0)])
    def test_non_integer_k(self, k):
        s = _low_rank_plus_noise(95, 12, [9.0, 6.0])
        with pytest.raises(DataError, match="k must be an integer"):
            top_k_eigenvectors(s, k)
        with pytest.raises(DataError, match="k must be an integer"):
            hetero_pca(s, k, 3)
        with pytest.raises(DataError, match="k must be an integer"):
            hetero_pca(lambda: s, k, 3, _operator(s))

    @pytest.mark.parametrize("n_iter", [2.5, True, None])
    def test_non_integer_n_iter(self, n_iter):
        s = _low_rank_plus_noise(96, 12, [9.0, 6.0])
        with pytest.raises(DataError, match="n_iter must be an integer"):
            hetero_pca(s, 2, n_iter)
        with pytest.raises(DataError, match="n_iter must be an integer"):
            hetero_pca(lambda: s, 2, n_iter, _operator(s))

    def test_range_errors_keep_their_texts(self):
        with pytest.raises(NumericalError, match=r"^k must satisfy 1 <= k <= m = 3, got 0$"):
            top_k_eigenvectors(np.eye(3), 0)
        for S, operator in [(np.eye(3), None), (lambda: np.eye(3), _operator(np.eye(3)))]:
            with pytest.raises(NumericalError, match=r"^k must satisfy 1 <= k <= m = 3, got 0$"):
                hetero_pca(S, 0, 1, operator)
            with pytest.raises(DataError, match=r"^n_iter must be nonnegative$"):
                hetero_pca(S, 1, -1, operator)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("m", [12, 500])  # below and above the block iteration's size rule
    def test_non_finite_matrix(self, bad, m):
        s = _low_rank_plus_noise(97, m, [9.0, 6.0])
        s[3, 5] = bad
        with pytest.raises(NonFiniteError, match="S has a non-finite entry at row 3, column 5"):
            top_k_eigenvectors(s, 2)
        with pytest.raises(NonFiniteError, match="S has a non-finite entry at row 3, column 5"):
            hetero_pca(s, 2, 3)

    def test_blocks_without_columns(self):
        with pytest.raises(DataError, match="blocks have no columns"):
            build_projection([np.zeros((5, 0))])
        with pytest.raises(DataError, match="blocks have no columns"):
            build_projection([np.zeros((5, 0)), np.zeros((5, 0))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_spectrum(self, bad):
        with pytest.raises(NonFiniteError, match="spectrum 'x' has a non-finite eigenvalue"):
            select_k([SpectrumSummary(np.array([bad, 1.0, 0.5]), "x")], 1)


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

    @pytest.mark.parametrize("k_star", [0, 2.5, True])
    def test_k_star_must_be_a_positive_integer(self, k_star):
        with pytest.raises(DataError, match="k_star must be a positive integer"):
            select_k([_spectrum([100.0, 50.0, 25.0, 1.0])], k_star)

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
