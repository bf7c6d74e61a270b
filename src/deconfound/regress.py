"""Least-squares stages shared by every estimator pipeline.

Every solve goes through one thin-SVD pseudo-inverse, not normal equations;
the explicit normal-equations path lives only in the test suite as an oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, NumericalError, RankDeficientError
from .model import (
    Dataset,
    DebiasedEstimate,
    FirstStageFit,
    ProjectionBasis,
    interaction_pairs,
)

#: Relative singular-value cutoff below which a design counts as rank deficient.
SV_RTOL = 1e-10


def expand_interactions(X: np.ndarray) -> np.ndarray:
    """The n x q design: X, then the p(p+1)/2 pairwise products X_j * X_k, j <= k.

    Column c < p is the linear term X_c; column p + i is the product
    X_j * X_k of the i-th pair (j, k) of interaction_pairs(p), so
    q = p + p(p+1)/2. A product that overflows raises NonFiniteError.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatchError(f"X must be 2-d, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NonFiniteError("X contains non-finite entries")
    pairs = interaction_pairs(X.shape[1])
    with np.errstate(over="ignore"):
        design = np.column_stack([X] + [X[:, j] * X[:, k] for j, k in pairs]) if pairs else X.copy()
    if not np.all(np.isfinite(design)):
        row, column = np.argwhere(~np.isfinite(design))[0]
        j, k = pairs[column - X.shape[1]]
        raise NonFiniteError(f"interaction X_{j} * X_{k} overflows at row {row}")
    return design


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


def diagonal_weights(X: np.ndarray) -> np.ndarray:
    """Pseudo-inverse rows of the design [1, X_j, X_j X_k] that give phi_B and each phi_C(j), in that order.

    Step 3 regresses each entry of eps_i eps_i^T on that design, pairs in
    interaction_pairs order; the estimators read only the intercept and
    the p diagonal-pair (j, j) coefficients, so only those rows are kept.
    """
    n, p = np.shape(X)
    design = np.column_stack([np.ones(n), expand_interactions(X)])
    if n <= design.shape[1]:
        raise NumericalError(
            f"covariance regression needs n > 1 + p + p(p+1)/2: n = {n}, "
            f"columns = {design.shape[1]}"
        )
    rows = [0] + [1 + p + interaction_pairs(p).index((j, j)) for j in range(p)]
    return _pseudo_inverse(design, "covariance design")[rows]


def fit_diagonal_surfaces(eps: np.ndarray, weights: np.ndarray, which: list[int]) -> list[np.ndarray]:
    """Surfaces which (0 is phi_B, j + 1 is phi_C(j)) of the rows of eps, from diagonal_weights' rows.

    With eps the n x m residuals, surface i is the m x m matrix of the
    coefficients of weight row i in the entry-by-entry regression of the
    outer products eps_i eps_i^T, without materializing the n x m(m+1)/2
    target matrix. Given the rows of F = U_r Lambda_r^{1/2} instead, from
    the residuals' Gram eps eps^T = U Lambda U^T, each is the r x r core of
    that surface, which is (eps^T M) core (eps^T M)^T for M = U_r Lambda_r^{-1/2}.
    """
    return [_contract_outer_products(eps, weights[i]) for i in which]


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
    """Regress Y (I - U U^T) on X, by linearity the p x m OLS fit (X^T X)^{-1} X^T Y times I - U U^T, computed so."""
    if basis.m != dataset.m:
        raise DimensionMismatchError(
            f"basis has m = {basis.m} rows but dataset has m = {dataset.m} responses"
        )
    if dataset.n <= dataset.p:
        raise NumericalError(f"projected regression needs n > p: n = {dataset.n}, p = {dataset.p}")
    theta = basis.apply_complement(least_squares(dataset.X, dataset.Y))
    return DebiasedEstimate(theta=theta, method=method, k_used=k_used, t_used=t_used)
