"""End-to-end estimator pipelines and the baselines they are compared to.

Every estimator returns a DebiasedEstimate tagged with its method name.
Pipeline failures carry the algorithm step (1-5) at which they occurred.
"""

from __future__ import annotations

from contextlib import closing, contextmanager

import numpy as np

from . import regress, spectral
from .errors import DataError, DeconfoundError, DimensionMismatchError, NumericalError
from .model import METHODS, Dataset, DebiasedEstimate, GroundTruth, ProjectionBasis
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
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.names = ["phi_B"] + [f"phi_C[{j}]" for j in range(dataset.p)]
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

    def surfaces(self) -> list[np.ndarray]:
        return self._once("surfaces", lambda: _interaction_surfaces(self.dataset))

    def top_k(self, i: int, k: int) -> np.ndarray:
        """Top-k eigenvectors of surface i: 0 is phi_B, j + 1 is phi_C(j)."""
        surface = self.surfaces()[i]
        return self._once(("top_k", i, k), lambda: spectral.top_k_eigenvectors(surface, k, source=self.names[i])[0])

    def mean_outer_product(self) -> np.ndarray:
        return self._once("mean", lambda: _mean_outer_product(self.dataset))

    def spectra(self, selector: str) -> list[SpectrumSummary]:
        """What the selector family reads: every interaction surface, or the mean outer product."""
        if selector == "interaction":
            return [spectral.eigen_spectrum(s, name) for s, name in zip(self.surfaces(), self.names)]
        return [spectral.eigen_spectrum(self.mean_outer_product(), "phi_B_mean")]

    def select_k(self, selector: str, k_star: int) -> int:
        return self._once(("k", selector, k_star), lambda: spectral.select_k(self.spectra(selector), k_star))


def _interaction_surfaces(dataset: Dataset) -> list[np.ndarray]:
    """Steps 1 and 3 of the interaction model: [phi_B, phi_C(0), ..., phi_C(p-1)]."""
    with _step(1, "interaction regression"):
        first = regress.fit_first_stage(dataset)
    with _step(3, "covariance regression"):
        return regress.fit_diagonal_surfaces(first, dataset.X)


def _mean_outer_product(dataset: Dataset) -> np.ndarray:
    """Averaged residual outer product of the linear fit of Y on X."""
    with _step(1, "linear regression"):
        theta_lin = regress.least_squares(dataset.X, dataset.Y)
    eps = dataset.Y - dataset.X @ theta_lin
    return (eps.T @ eps) / dataset.n


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
        phi_b = stage.surfaces()[0]
        with _step(4, "eigenspace extraction"):
            u_b = spectral.hetero_pca(phi_b, k, n_iter) if hetero else stage.top_k(0, k)
            basis = spectral.build_projection([u_b] + [stage.top_k(j, k) for j in range(1, dataset.p + 1)])
    else:
        if k > dataset.m:
            raise NumericalError(f"k = {k} exceeds m = {dataset.m}")
        if dataset.n <= dataset.p:
            raise NumericalError(f"need n > p: n = {dataset.n}, p = {dataset.p}")
        phi_b = stage.mean_outer_product()
        with _step(4, "eigenspace extraction"):
            u_b = spectral.hetero_pca(phi_b, k, n_iter) if hetero else spectral.top_k_eigenvectors(phi_b, k, "phi_B")[0]
        basis = ProjectionBasis(U=u_b)
    with _step(5, "projected least squares"):
        return regress.fit_projected_ols(dataset, basis, method=method, k_used=k, t_used=n_iter if hetero else None)
