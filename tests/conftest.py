"""Shared helpers for the test suite."""

import numpy as np

from deconfound.model import ProjectionBasis
from deconfound.regress import diagonal_weights, fit_diagonal_surfaces


def normal_equations(design: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Brute-force least squares via explicitly formed normal equations."""
    gram = design.T @ design
    return np.linalg.solve(gram, design.T @ targets)


def assert_projector_properties(basis: ProjectionBasis, tol: float = 1e-8) -> None:
    """P^2 = P, P^T = P, trace(P) = r."""
    proj = basis.projector()
    assert np.max(np.abs(proj @ proj - proj)) < tol
    assert np.max(np.abs(proj - proj.T)) < tol
    assert abs(np.trace(proj) - basis.r) < tol


def random_orthonormal(rng: np.random.Generator, m: int, r: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((m, max(r, 1))))
    return q[:, :r]


def read_surfaces(eps: np.ndarray, X: np.ndarray) -> list[np.ndarray]:
    """Step 3's m x m surfaces [phi_B, phi_C(0), ..., phi_C(p-1)] of the residuals eps, as the estimators build them."""
    return fit_diagonal_surfaces(eps, diagonal_weights(X), list(range(np.shape(X)[1] + 1)))
