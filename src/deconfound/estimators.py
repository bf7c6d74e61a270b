"""End-to-end estimator pipelines and the baselines they are compared to.

Every estimator returns a DebiasedEstimate tagged with its method name.
Pipeline failures carry the algorithm step (1-5) at which they occurred.
"""

from __future__ import annotations

from contextlib import closing, contextmanager

import numpy as np

from . import regress, spectral
from .errors import DataError, DeconfoundError, DimensionMismatchError, NumericalError
from .model import METHODS, Dataset, DebiasedEstimate, FirstStageFit, GroundTruth, ProjectionBasis
from .spectral import SpectrumSummary

DEFAULT_N_ITER = 5


@contextmanager
def _step(step: int, label: str):
    """Re-raise pipeline errors with the algorithm step that failed."""
    try:
        yield
    except DeconfoundError as err:
        raise type(err)(f"step {step} ({label}): {err}") from err


def _check_n_iter(n_iter: int) -> None:
    if n_iter < 1:
        raise DataError(f"n_iter must be a positive integer, got {n_iter}")


class _Stage:
    """Steps 1-3 of one dataset, shared by the selectors and fits that read them.

    Computes each quantity at most once, on first use: the interaction
    surfaces and their top-k eigenvectors, the no-interaction mean outer
    product, and each selector family's K. A failure is kept and raised
    again to every later reader, so all of them report the same step.
    close() drops it all, even while an escaped error's traceback holds
    the stage.

    At n < m every surface lies in the n-dimensional row space of its
    residuals, so top-k eigenvectors come from n x n cores (see _top_k)
    and the m x m surfaces are built only for the selector, HeteroPCA and
    the fallback.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.names = ["phi_B"] + [f"phi_C[{j}]" for j in range(dataset.p)]
        self.factored = dataset.n < dataset.m
        self._memo: dict = {}

    def close(self) -> None:
        self._memo.clear()

    def _once(self, key, compute):
        if key not in self._memo:
            try:
                self._memo[key] = compute()
            except (DeconfoundError, np.linalg.LinAlgError) as err:
                self._memo[key] = err
        if isinstance(self._memo[key], Exception):
            raise self._memo[key]
        return self._memo[key]

    def _shared(self, key, compute):
        """compute() kept at n < m, where the surfaces and the cores both read it."""
        return self._once(key, compute) if self.factored else compute()

    def _first(self) -> FirstStageFit:
        return self._shared("first", lambda: _first_stage(self.dataset))

    def _linear(self) -> np.ndarray:
        return self._shared("linear", lambda: _linear_residuals(self.dataset))

    def surfaces(self) -> list[np.ndarray]:
        return self._once("surfaces", lambda: _diagonal_surfaces(self._first(), self.dataset.X))

    def _cores(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return self._once("cores", lambda: _diagonal_cores(self._first(), self.dataset.X))

    def top_k(self, i: int, k: int) -> np.ndarray:
        """Top-k eigenvectors of surface i: 0 is phi_B, j + 1 is phi_C(j). Raises step-4 errors."""
        return self._once(
            ("top_k", i, k), lambda: self._top_k(lambda: self._cores()[i], lambda: self.surfaces()[i], k, self.names[i])
        )

    def mean_outer_product(self) -> np.ndarray:
        return self._once("mean", lambda: _mean_outer_product(self._linear(), self.dataset.n))

    def mean_top_k(self, k: int) -> np.ndarray:
        """Top-k eigenvectors of the mean outer product. Raises step-4 errors."""
        return self._top_k(lambda: _mean_core(self._linear(), self.dataset.n), self.mean_outer_product, k, "phi_B")

    def _top_k(self, factor, surface, k: int, source: str) -> np.ndarray:
        """Top-k eigenvectors of surface(); at n < m from factor() = (Q, core), surface = Q core Q^T.

        The core's eigenvectors, mapped by Q, are the surface's when its
        k-th eigenvalue is positive beyond round-off (SV_RTOL of its
        largest |eigenvalue|). Otherwise the surface's top k reach its
        null space, and they come from surface() as at n >= m.
        """
        if self.factored and k <= self.dataset.n:
            q, core = factor()
            with _step(4, "eigenspace extraction"):
                v, spectrum = spectral.top_k_eigenvectors(core, k, source=source)
            vals = spectrum.eigenvalues
            if vals[k - 1] > regress.SV_RTOL * np.max(np.abs(vals)):
                return spectral.fix_signs(q @ v)
        matrix = surface()
        with _step(4, "eigenspace extraction"):
            return spectral.top_k_eigenvectors(matrix, k, source=source)[0]

    def spectra(self, selector: str) -> list[SpectrumSummary]:
        """What the selector family reads: every interaction surface, or the mean outer product."""
        if selector == "interaction":
            return [spectral.eigen_spectrum(s, name) for s, name in zip(self.surfaces(), self.names)]
        return [spectral.eigen_spectrum(self.mean_outer_product(), "phi_B_mean")]

    def select_k(self, selector: str, k_star: int) -> int:
        return self._once(("k", selector, k_star), lambda: spectral.select_k(self.spectra(selector), k_star))


def _first_stage(dataset: Dataset) -> FirstStageFit:
    """Step 1 of the interaction model."""
    with _step(1, "interaction regression"):
        return regress.fit_first_stage(dataset)


def _diagonal_surfaces(first: FirstStageFit, X: np.ndarray) -> list[np.ndarray]:
    """Step 3 of the interaction model: [phi_B, phi_C(0), ..., phi_C(p-1)]."""
    with _step(3, "covariance regression"):
        return regress.fit_diagonal_surfaces(first, X)


def _diagonal_cores(first: FirstStageFit, X: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Step 3 in the residuals' row space: (Q, core) of each of those surfaces."""
    with _step(3, "covariance regression"):
        return regress.fit_diagonal_cores(first, X)


def _linear_residuals(dataset: Dataset) -> np.ndarray:
    """Residuals of the linear fit of Y on X."""
    with _step(1, "linear regression"):
        theta_lin = regress.least_squares(dataset.X, dataset.Y)
    return dataset.Y - dataset.X @ theta_lin


def _mean_outer_product(eps: np.ndarray, n: int) -> np.ndarray:
    """Averaged outer product of the linear fit's residuals."""
    return (eps.T @ eps) / n


def _mean_core(eps: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(Q, core) with eps^T = Q R, so the mean outer product is Q (R R^T / n) Q^T."""
    q, r = np.linalg.qr(eps.T)
    return q, (r @ r.T) / n


def _hetero_pca(phi_b: np.ndarray, k: int, n_iter: int) -> np.ndarray:
    with _step(4, "eigenspace extraction"):
        return spectral.hetero_pca(phi_b, k, n_iter)


def fit_homoscedastic(dataset: Dataset, k: int) -> DebiasedEstimate:
    """Interaction-aware debiased estimator for homoscedastic noise.

    Chains the interaction regression, the residual-covariance
    regression, per-surface eigenvector extraction, projection-basis
    construction and the projected least-squares solve.
    """
    return fit_method(dataset, "interaction_homo", k=k)


def fit_heteroscedastic(dataset: Dataset, k: int, n_iter: int = DEFAULT_N_ITER) -> DebiasedEstimate:
    """Interaction-aware debiased estimator for heteroscedastic noise.

    Identical to fit_homoscedastic except the B-block eigenvectors come
    from the diagonal-imputation iteration with n_iter passes.
    """
    return fit_method(dataset, "interaction_hetero", k=k, n_iter=n_iter)


def fit_ols_baseline(dataset: Dataset) -> DebiasedEstimate:
    """Plain least squares of Y on X, ignoring hidden variables: the empty projection."""
    return regress.fit_projected_ols(dataset, ProjectionBasis.empty(dataset.m))


def oracle_basis(truth: GroundTruth) -> ProjectionBasis:
    """Orthonormal basis of the column space of the stacked hidden effects.

    Computed from an SVD of the transposed stack rather than the literal
    D^T (D D^T)^{-1} D projector formula, for conditioning; the resulting
    projector annihilates B^T and every C_j^T.
    """
    stacked = truth.stacked_hidden_effects()
    u, _, _ = np.linalg.svd(stacked.T, full_matrices=False)
    return ProjectionBasis(U=spectral.fix_signs(u))


def fit_oracle(dataset: Dataset, truth: GroundTruth) -> DebiasedEstimate:
    """Projected estimator using the true hidden-effect matrices.

    Not available in practice; serves as the benchmark floor.
    """
    if truth.p != dataset.p or truth.m != dataset.m:
        raise DimensionMismatchError(
            f"truth dimensions (p={truth.p}, m={truth.m}) do not match dataset "
            f"(p={dataset.p}, m={dataset.m})"
        )
    return regress.fit_projected_ols(dataset, oracle_basis(truth), method="oracle", k_used=truth.k)


def fit_non_interaction(
    dataset: Dataset, k: int, variant: str = "homo", n_iter: int = DEFAULT_N_ITER
) -> DebiasedEstimate:
    """Debiased estimator that assumes no observed-hidden interaction.

    Regresses Y on X linearly, averages the residual outer products into
    a single covariance surface, extracts its leading k-dimensional
    eigenspace (plain or diagonal-imputed by variant) and solves the
    projected regression with r = k.
    """
    return fit_method(dataset, f"non_interaction_{variant}", k=k, n_iter=n_iter)


def interaction_spectra(dataset: Dataset) -> list[SpectrumSummary]:
    """Spectra of the p+1 interaction-model covariance surfaces.

    Used by the rank selector: one spectrum for the intercept surface
    and one per diagonal-pair interaction surface.
    """
    with closing(_Stage(dataset)) as stage:
        return stage.spectra("interaction")


def non_interaction_spectrum(dataset: Dataset) -> SpectrumSummary:
    """Spectrum of the averaged residual outer product of the linear fit."""
    with closing(_Stage(dataset)) as stage:
        return stage.spectra("non_interaction")[0]


def fit_method(
    dataset: Dataset,
    method: str,
    *,
    k: int | None = None,
    n_iter: int = DEFAULT_N_ITER,
    truth: GroundTruth | None = None,
) -> DebiasedEstimate:
    """Dispatch a method tag to the matching estimator."""
    with closing(_Stage(dataset)) as stage:
        return _fit(stage, method, k, n_iter, truth)


def _fit(stage: _Stage, method: str, k: int | None, n_iter: int | None, truth: GroundTruth | None) -> DebiasedEstimate:
    """Every estimator, on a stage that other methods and selectors may share."""
    dataset = stage.dataset
    if method not in METHODS:
        raise DataError(f"unknown method tag {method!r}")
    if method == "ols":
        return fit_ols_baseline(dataset)
    if method == "oracle":
        if truth is None:
            raise DataError("the oracle method requires the ground truth")
        return fit_oracle(dataset, truth)
    if k is None:
        raise DataError(f"method {method!r} requires k")
    hetero = method.endswith("_hetero")
    if hetero:
        _check_n_iter(n_iter)
    if k < 1:
        raise NumericalError(f"k must be a positive integer, got {k}")
    if method.startswith("interaction"):
        if (dataset.p + 1) * k > dataset.m:
            raise NumericalError(f"(p+1)*K = {(dataset.p + 1) * k} exceeds m = {dataset.m}; cannot project out that many directions")
        u_b = _hetero_pca(stage.surfaces()[0], k, n_iter) if hetero else stage.top_k(0, k)
        blocks = [u_b] + [stage.top_k(j, k) for j in range(1, dataset.p + 1)]
        with _step(4, "eigenspace extraction"):
            basis = spectral.build_projection(blocks)
    else:
        if k > dataset.m:
            raise NumericalError(f"k = {k} exceeds m = {dataset.m}")
        if dataset.n <= dataset.p:
            raise NumericalError(f"need n > p: n = {dataset.n}, p = {dataset.p}")
        basis = ProjectionBasis(U=_hetero_pca(stage.mean_outer_product(), k, n_iter) if hetero else stage.mean_top_k(k))
    with _step(5, "projected least squares"):
        return regress.fit_projected_ols(dataset, basis, method=method, k_used=k, t_used=n_iter if hetero else None)
