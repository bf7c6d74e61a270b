"""End-to-end estimator pipelines and the baselines they are compared to.

Every estimator returns a DebiasedEstimate tagged with its method name.
Pipeline failures carry the algorithm step (1-5) at which they occurred.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import regress, spectral
from .errors import DataError, DeconfoundError, DimensionMismatchError, NumericalError
from .model import Dataset, DebiasedEstimate, GroundTruth, ProjectionBasis
from .spectral import SpectrumSummary

DEFAULT_N_ITER = 5


@contextmanager
def _stage(step: int, label: str):
    """Re-raise pipeline errors with the algorithm step that failed."""
    try:
        yield
    except DeconfoundError as err:
        raise type(err)(f"step {step} ({label}): {err}") from err


def _check_rank_budget(dataset: Dataset, k: int) -> None:
    if k < 1:
        raise NumericalError(f"k must be a positive integer, got {k}")
    needed = (dataset.p + 1) * k
    if needed > dataset.m:
        raise NumericalError(
            f"(p+1)*K = {needed} exceeds m = {dataset.m}; cannot project out that many directions"
        )


def _check_n_iter(n_iter: int) -> None:
    if n_iter < 1:
        raise DataError(f"n_iter must be a positive integer, got {n_iter}")


def _interaction_surfaces(dataset: Dataset) -> list[np.ndarray]:
    """Steps 1-3 of the interaction model: [phi_B, phi_C(0), ..., phi_C(p-1)]."""
    with _stage(1, "interaction regression"):
        first = regress.fit_first_stage(dataset)
    with _stage(3, "covariance regression"):
        return regress.fit_diagonal_surfaces(first, dataset.X)


def _interaction_projection(
    dataset: Dataset, k: int, n_iter: int | None
) -> ProjectionBasis:
    """Steps 1-4 shared by the two interaction pipelines.

    n_iter None extracts the B-block eigenvectors directly; an integer
    routes the B surface through the diagonal-imputation iteration
    instead (the C_j blocks always use plain eigenvectors).
    """
    phi_b, *phi_c = _interaction_surfaces(dataset)
    with _stage(4, "eigenspace extraction"):
        if n_iter is None:
            u_b, _ = spectral.top_k_eigenvectors(phi_b, k, source="phi_B")
        else:
            u_b = spectral.hetero_pca(phi_b, k, n_iter)
        u_c = [spectral.top_k_eigenvectors(s, k, source=f"phi_C[{j}]")[0] for j, s in enumerate(phi_c)]
        return spectral.build_projection([u_b] + u_c)


def fit_homoscedastic(dataset: Dataset, k: int) -> DebiasedEstimate:
    """Interaction-aware debiased estimator for homoscedastic noise.

    Chains the interaction regression, the residual-covariance
    regression, per-surface eigenvector extraction, projection-basis
    construction and the projected least-squares solve.
    """
    _check_rank_budget(dataset, k)
    basis = _interaction_projection(dataset, k, n_iter=None)
    with _stage(5, "projected least squares"):
        return regress.fit_projected_ols(dataset, basis, method="interaction_homo", k_used=k)


def fit_heteroscedastic(dataset: Dataset, k: int, n_iter: int = DEFAULT_N_ITER) -> DebiasedEstimate:
    """Interaction-aware debiased estimator for heteroscedastic noise.

    Identical to fit_homoscedastic except the B-block eigenvectors come
    from the diagonal-imputation iteration with n_iter passes.
    """
    _check_n_iter(n_iter)
    _check_rank_budget(dataset, k)
    basis = _interaction_projection(dataset, k, n_iter=n_iter)
    with _stage(5, "projected least squares"):
        return regress.fit_projected_ols(
            dataset, basis, method="interaction_hetero", k_used=k, t_used=n_iter
        )


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
    if variant not in ("homo", "hetero"):
        raise DataError(f"variant must be 'homo' or 'hetero', got {variant!r}")
    if variant == "hetero":
        _check_n_iter(n_iter)
    if k < 1:
        raise NumericalError(f"k must be a positive integer, got {k}")
    if k > dataset.m:
        raise NumericalError(f"k = {k} exceeds m = {dataset.m}")
    if dataset.n <= dataset.p:
        raise NumericalError(f"need n > p: n = {dataset.n}, p = {dataset.p}")
    phi_b = _mean_outer_product(dataset)
    with _stage(4, "eigenspace extraction"):
        if variant == "homo":
            u_b, _ = spectral.top_k_eigenvectors(phi_b, k, source="phi_B")
            t_used = None
        else:
            u_b = spectral.hetero_pca(phi_b, k, n_iter)
            t_used = n_iter
    basis = ProjectionBasis(U=u_b)
    with _stage(5, "projected least squares"):
        return regress.fit_projected_ols(
            dataset, basis, method=f"non_interaction_{variant}", k_used=k, t_used=t_used
        )


def _mean_outer_product(dataset: Dataset) -> np.ndarray:
    """Averaged residual outer product of the linear fit of Y on X."""
    with _stage(1, "linear regression"):
        theta_lin = regress.least_squares(dataset.X, dataset.Y)
    eps = dataset.Y - dataset.X @ theta_lin
    return (eps.T @ eps) / dataset.n


def interaction_spectra(dataset: Dataset) -> list[SpectrumSummary]:
    """Spectra of the p+1 interaction-model covariance surfaces.

    Used by the rank selector: one spectrum for the intercept surface
    and one per diagonal-pair interaction surface.
    """
    names = ["phi_B"] + [f"phi_C[{j}]" for j in range(dataset.p)]
    return [spectral.eigen_spectrum(s, name) for s, name in zip(_interaction_surfaces(dataset), names)]


def non_interaction_spectrum(dataset: Dataset) -> SpectrumSummary:
    """Spectrum of the averaged residual outer product of the linear fit."""
    return spectral.eigen_spectrum(_mean_outer_product(dataset), "phi_B_mean")


def fit_method(
    dataset: Dataset,
    method: str,
    *,
    k: int | None = None,
    n_iter: int = DEFAULT_N_ITER,
    truth: GroundTruth | None = None,
) -> DebiasedEstimate:
    """Dispatch a method tag to the matching estimator."""
    if method == "ols":
        return fit_ols_baseline(dataset)
    if method == "oracle":
        if truth is None:
            raise DataError("the oracle method requires the ground truth")
        return fit_oracle(dataset, truth)
    if k is None:
        raise DataError(f"method {method!r} requires k")
    if method == "interaction_homo":
        return fit_homoscedastic(dataset, k)
    if method == "interaction_hetero":
        return fit_heteroscedastic(dataset, k, n_iter)
    if method == "non_interaction_homo":
        return fit_non_interaction(dataset, k, "homo")
    if method == "non_interaction_hetero":
        return fit_non_interaction(dataset, k, "hetero", n_iter)
    raise DataError(f"unknown method tag {method!r}")
