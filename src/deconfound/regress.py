"""Least-squares stages shared by every estimator pipeline.

Every solve goes through one thin-SVD pseudo-inverse, not normal equations;
the explicit normal-equations path lives only in the test suite as an oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, NumericalError, RankDeficientError
from .model import (
    CovarianceFit,
    Dataset,
    DebiasedEstimate,
    FirstStageFit,
    ProjectionBasis,
    _require_finite,
)

#: Relative singular-value cutoff below which a design counts as rank deficient.
SV_RTOL = 1e-10


def interaction_pairs(p: int) -> tuple[tuple[int, int], ...]:
    """Ordered covariate pairs (j, k), j <= k, in lexicographic order."""
    return tuple((j, k) for j in range(p) for k in range(j, p))


def expand_interactions(X: np.ndarray) -> np.ndarray:
    """The n x q design: X, then the p(p+1)/2 pairwise products X_j * X_k, j <= k.

    Column c < p is the linear term X_c; column p + i is the product
    X_j * X_k of the i-th pair (j, k) of interaction_pairs(p), so
    q = p + p(p+1)/2.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatchError(f"X must be 2-d, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NonFiniteError("X contains non-finite entries")
    products = [X[:, j] * X[:, k] for j, k in interaction_pairs(X.shape[1])]
    return np.column_stack([X] + products) if products else X.copy()


def _check_conditioning(singular_values: np.ndarray, what: str) -> None:
    if singular_values.size == 0 or singular_values[0] == 0.0:
        raise RankDeficientError(f"{what} is identically zero")
    if singular_values[-1] < SV_RTOL * singular_values[0]:
        raise RankDeficientError(
            f"{what} is rank deficient: smallest/largest singular value = "
            f"{singular_values[-1] / singular_values[0]:.3e} < {SV_RTOL:.0e}"
        )


def least_squares(design: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Minimize ||targets - design @ coefficients||_F over coefficients.

    Solved as pinv(design) @ targets through the thin SVD of the design.
    Requires an overdetermined, well-conditioned design: n >= q and
    smallest singular value above SV_RTOL times the largest.
    """
    design = np.asarray(design, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if design.ndim != 2 or targets.ndim != 2:
        raise DimensionMismatchError("design and targets must be 2-d")
    n, q = design.shape
    if targets.shape[0] != n:
        raise DimensionMismatchError(
            f"targets have {targets.shape[0]} rows but design has {n}"
        )
    if n < q:
        raise NumericalError(f"underdetermined system: n = {n} < q = {q}")
    return _pseudo_inverse(design, "design") @ targets


def _pseudo_inverse(design: np.ndarray, what: str) -> np.ndarray:
    """SVD pseudo-inverse with the shared conditioning check."""
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    _check_conditioning(s, what)
    return (vt.T / s) @ u.T


def fit_first_stage(dataset: Dataset) -> FirstStageFit:
    """Regress Y on the interaction-expanded design of X.

    Returns the linear coefficients L1, interaction coefficients L2 and
    the residual matrix Y - fitted.
    """
    design = expand_interactions(dataset.X)
    n, q = design.shape
    if n <= q:
        raise NumericalError(
            f"first stage needs n > p + p(p+1)/2: n = {n}, q = {q}"
        )
    coef = least_squares(design, dataset.Y)
    residuals = dataset.Y - design @ coef
    return FirstStageFit(L1=coef[: dataset.p], L2=coef[dataset.p :], residuals=residuals)


def _covariance_weights(fit: FirstStageFit, X: np.ndarray) -> np.ndarray:
    """Pseudo-inverse rows of the design [1, X_j, X_j X_k], pairs in interaction_pairs order."""
    n = fit.residuals.shape[0]
    if np.shape(X) != (n, fit.p):
        raise DimensionMismatchError(
            f"X must be ({n}, {fit.p}) to match the first-stage fit, got {np.shape(X)}"
        )
    design = np.column_stack([np.ones(n), expand_interactions(X)])
    if n <= design.shape[1]:
        raise NumericalError(
            f"covariance regression needs n > 1 + p + p(p+1)/2: n = {n}, "
            f"columns = {design.shape[1]}"
        )
    return _pseudo_inverse(design, "covariance design")


def fit_covariance_regression(fit: FirstStageFit, X: np.ndarray) -> CovarianceFit:
    """Regress the residual outer products on [1, X_j, X_j X_k].

    Entry (r, s) of eps_i eps_i^T is regressed on the (1 + p + p(p+1)/2)
    column design; the coefficient of each design column, assembled over
    all (r, s), is one m x m surface. The solve is carried out by
    contracting the pseudo-inverse rows of the design against the outer
    products, which is the multi-target least-squares solution without
    materializing the n x m(m+1)/2 target matrix. Every surface is a
    weighted sum of the symmetric eps_i eps_i^T and is symmetrized as
    (M + M^T) / 2.
    """
    surfaces = [_contract_outer_products(fit.residuals, w) for w in _covariance_weights(fit, X)]
    p = fit.p
    phi_cc = dict(zip(interaction_pairs(p), surfaces[1 + p :]))
    return CovarianceFit(phi_B=surfaces[0], phi_BC=tuple(surfaces[1 : 1 + p]), phi_CC=phi_cc)


def fit_diagonal_surfaces(fit: FirstStageFit, X: np.ndarray) -> list[np.ndarray]:
    """Only [phi_B, phi_C(0), ..., phi_C(p-1)], as fit_covariance_regression builds them."""
    return _finite([_contract_outer_products(fit.residuals, w) for w in _diagonal_weights(fit, X)])


def fit_diagonal_cores(fit: FirstStageFit, X: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """fit_diagonal_surfaces in the residuals' row space: (Q, core) with surface = Q core Q^T.

    eps^T = Q R is the reduced QR of the n x m residuals, so Q has
    min(n, m) orthonormal columns, and each core is the same weighted sum
    of outer products taken over the columns of R. At n < m this replaces
    every m x m surface by an n x n one.
    """
    weights = _diagonal_weights(fit, X)
    q, r = np.linalg.qr(fit.residuals.T)
    return [(q, core) for core in _finite([_contract_outer_products(r.T, w) for w in weights])]


def _diagonal_weights(fit: FirstStageFit, X: np.ndarray) -> np.ndarray:
    """The covariance-weight rows of phi_B and each phi_C(j), in that order."""
    rows = [0] + [1 + fit.p + interaction_pairs(fit.p).index((j, j)) for j in range(fit.p)]
    return _covariance_weights(fit, X)[rows]


def _finite(surfaces: list[np.ndarray]) -> list[np.ndarray]:
    for i, surface in enumerate(surfaces):
        _require_finite(surface, "phi_B" if i == 0 else f"phi_C[{i - 1}]")
    return surfaces


def _contract_outer_products(eps: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Compute sum_i weights[i] * eps_i eps_i^T as one symmetrized m x m matrix."""
    mat = eps.T @ (weights[:, None] * eps)
    return (mat + mat.T) / 2.0


def fit_projected_ols(
    dataset: Dataset,
    basis: ProjectionBasis,
    *,
    method: str = "ols",
    k_used: int | None = None,
    t_used: int | None = None,
) -> DebiasedEstimate:
    """Regress the projected responses Y (I - U U^T) on X, linear terms only."""
    if basis.m != dataset.m:
        raise DimensionMismatchError(
            f"basis has m = {basis.m} rows but dataset has m = {dataset.m} responses"
        )
    if dataset.n <= dataset.p:
        raise NumericalError(f"projected regression needs n > p: n = {dataset.n}, p = {dataset.p}")
    projected = basis.apply_complement(dataset.Y)
    theta = least_squares(dataset.X, projected)
    return DebiasedEstimate(theta=theta, method=method, k_used=k_used, t_used=t_used)
