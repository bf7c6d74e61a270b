"""Eigenspace extraction, projection-basis construction, and rank selection."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateBasisWarning, DimensionMismatchError, NumericalError
from .model import ProjectionBasis

#: Singular-value ratio below which a concatenated basis counts as degenerate.
DEGENERACY_RTOL = 1e-8

#: Columns HeteroPCA's block iteration carries beyond the k it returns.
BLOCK_OVERSAMPLE = 10
#: Smallest m, in block widths k + BLOCK_OVERSAMPLE, at which the block iteration replaces eigh
#: (it breaks even with a 5-step eigh loop at about 7 widths for k = 1 and 3, and 9 for k = 5).
BLOCK_MIN_WIDTHS = 8
#: Davis-Kahan sin-theta bound a block step must certify to be accepted.
BLOCK_TOL = 1e-12
#: Sweeps a block step may take before HeteroPCA falls back to eigh.
BLOCK_MAX_SWEEPS = 60


@dataclass(frozen=True)
class SpectrumSummary:
    """Full nonincreasing eigenvalue list of one coefficient surface."""

    eigenvalues: np.ndarray
    source: str

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float)
        if vals.ndim != 1:
            raise DimensionMismatchError("eigenvalues must be a 1-d array")
        if vals.size > 1 and np.any(np.diff(vals) > 0):
            raise DataError("eigenvalues must be sorted nonincreasing")
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)


def fix_signs(U: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Make the first non-negligible entry of each column positive."""
    U = np.array(U)
    for c in range(U.shape[1]):
        col = U[:, c]
        nonzero = np.nonzero(np.abs(col) > tol)[0]
        if nonzero.size and col[nonzero[0]] < 0:
            U[:, c] = -col
    return U


def _as_symmetric(S: np.ndarray) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got shape {S.shape}")
    return (S + S.T) / 2.0


def eigen_spectrum(S: np.ndarray, source: str) -> SpectrumSummary:
    """All eigenvalues of the symmetrized matrix, sorted nonincreasing."""
    vals = np.linalg.eigvalsh(_as_symmetric(S))
    return SpectrumSummary(eigenvalues=vals[::-1], source=source)


def top_k_eigenvectors(S: np.ndarray, k: int, source: str = "matrix") -> tuple[np.ndarray, SpectrumSummary]:
    """Unit eigenvectors of the k algebraically largest eigenvalues.

    The input is symmetrized before decomposition. Returns the m x k
    eigenvector matrix (sign-normalized) and the full spectrum.
    """
    sym = _as_symmetric(S)
    m = sym.shape[0]
    if not 1 <= k <= m:
        raise NumericalError(f"k must satisfy 1 <= k <= m = {m}, got {k}")
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(vals)[::-1]
    spectrum = SpectrumSummary(eigenvalues=vals[order], source=source)
    return fix_signs(vecs[:, order[:k]]), spectrum


def hetero_pca(S: np.ndarray, k: int, n_iter: int) -> np.ndarray:
    """Leading eigenspace of S with the diagonal iteratively re-imputed.

    Starts from S with a zeroed diagonal and alternates: take the best
    rank-k approximation sum_j lambda_j u_j u_j^T over the k largest
    |lambda|, then replace only the diagonal with its diagonal while
    keeping the original off-diagonal entries. Returns the eigenvectors
    of the k largest |lambda| (sign-normalized) after n_iter
    replacements; S is left unchanged. Robust to additive diagonal
    contamination of a low-rank target, which plain eigenvector
    extraction is not.

    Each step's k eigenpairs come from a block subspace iteration
    (_certified_ritz) of k + BLOCK_OVERSAMPLE columns when the iterate is
    finite and m >= BLOCK_MIN_WIDTHS * (k + BLOCK_OVERSAMPLE). The first
    block is a fixed-seed Gaussian one; each later step starts from the
    previous step's Ritz block, since only the diagonal has changed. A
    step is accepted only when the Davis-Kahan residual bound certifies
    its top k to sin-theta BLOCK_TOL within BLOCK_MAX_SWEEPS sweeps (it
    cannot on a tie |lambda_k| = |lambda_k+1|). Below that size, and from
    the first step that is not certified, every step is one full eigh of
    the iterate, ordered by |lambda|.
    """
    current = _as_symmetric(S)
    m = current.shape[0]
    if not 1 <= k <= m:
        raise NumericalError(f"k must satisfy 1 <= k <= m = {m}, got {k}")
    if n_iter < 0:
        raise DataError("n_iter must be nonnegative")
    np.fill_diagonal(current, 0.0)
    block = None
    if m >= BLOCK_MIN_WIDTHS * (k + BLOCK_OVERSAMPLE) and np.isfinite(current).all():
        block = np.linalg.qr(np.random.default_rng(0).standard_normal((m, k + BLOCK_OVERSAMPLE)))[0]
    for step in range(n_iter + 1):
        ritz = None if block is None else _certified_ritz(current, k, block)
        if ritz is None:
            block = None
            vals, vecs = np.linalg.eigh(current)
            top = np.argsort(np.abs(vals))[: -k - 1 : -1]
        else:
            vals, vecs = ritz
            block, top = vecs, slice(k)
        if step < n_iter:
            np.fill_diagonal(current, np.square(vecs[:, top]) @ vals[top])
    return fix_signs(vecs[:, top])


def _certified_ritz(a: np.ndarray, k: int, block: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Ritz pairs of a from subspace iteration on the orthonormal block, by |theta| descending.

    Each sweep takes one product a @ block and the eigh of the small
    block^T a block. It returns the Ritz values and vectors U once the top
    k satisfy ||a U_k - U_k Theta_k||_F <= BLOCK_TOL * (|theta_k| -
    |theta_k+1|), which bounds their sin-theta to the exact top-k
    eigenspace (Davis-Kahan); otherwise the next block is the orthonormal
    basis of a @ block. None after BLOCK_MAX_SWEEPS sweeps.
    """
    for _ in range(BLOCK_MAX_SWEEPS):
        product = a @ block
        small = block.T @ product
        theta, y = np.linalg.eigh((small + small.T) / 2.0)
        order = np.argsort(np.abs(theta))[::-1]
        theta, y = theta[order], y[:, order]
        ritz = block @ y
        gap = abs(theta[k - 1]) - abs(theta[k])
        if gap > 0 and np.linalg.norm(product @ y[:, :k] - ritz[:, :k] * theta[:k]) <= BLOCK_TOL * gap:
            return theta, ritz
        block = np.linalg.qr(product)[0]
    return None


def build_projection(blocks: list[np.ndarray]) -> ProjectionBasis:
    """Orthonormal basis spanning the union of the given column blocks.

    Takes the first r left singular vectors of the horizontal
    concatenation, where r is the total column count. A concatenation
    whose smallest singular value is negligible triggers a
    DegenerateBasisWarning instead of an error.
    """
    if not blocks:
        raise DataError("need at least one block")
    m = blocks[0].shape[0]
    for i, block in enumerate(blocks):
        if block.ndim != 2 or block.shape[0] != m:
            raise DimensionMismatchError(f"block {i} must have {m} rows, got shape {block.shape}")
    concat = np.hstack(blocks)
    r = concat.shape[1]
    if r > m:
        raise NumericalError(f"total basis size r = {r} exceeds m = {m}")
    u, s, _ = np.linalg.svd(concat, full_matrices=False)
    if s[0] == 0.0 or s[-1] < DEGENERACY_RTOL * s[0]:
        warnings.warn(
            DegenerateBasisWarning(
                f"concatenated blocks nearly rank deficient: smallest/largest "
                f"singular value = {s[-1] / s[0] if s[0] else 0.0:.3e}"
            )
        )
    return ProjectionBasis(U=fix_signs(u[:, :r]))


def default_k_star(n: int, m: int) -> int:
    """Default upper bound for the rank search: floor(min(n, m) / 2)."""
    return max(1, min(n, m) // 2)


def select_k(spectra: list[SpectrumSummary], k_star: int) -> int:
    """Rank estimate by majority vote over eigenvalue-ratio peaks.

    Each spectrum votes for the index i in 1..k_star maximizing the
    consecutive ratio lambda_i / lambda_{i+1} (smallest i on a tie); the
    returned estimate is the index with the most votes, smallest first
    on tied counts.
    """
    if k_star < 1:
        raise DataError("k_star must be a positive integer")
    if not spectra:
        raise DataError("need at least one spectrum")
    votes = []
    for spectrum in spectra:
        vals = spectrum.eigenvalues
        if vals.size < k_star + 1:
            raise DataError(
                f"spectrum {spectrum.source!r} has {vals.size} eigenvalues; "
                f"need at least k_star + 1 = {k_star + 1}"
            )
        head = vals[: k_star + 1]
        if np.any(head <= 0):
            raise NumericalError(
                f"nonpositive eigenvalue in spectrum {spectrum.source!r} within the "
                f"first {k_star + 1} entries; ratio test undefined"
            )
        ratios = head[:-1] / head[1:]
        votes.append(int(np.argmax(ratios)) + 1)
    counts = np.bincount(votes, minlength=k_star + 1)
    return int(np.argmax(counts[1:])) + 1


def sin_theta(U: np.ndarray, V: np.ndarray) -> float:
    """Frobenius sin-theta distance between the column spans of U and V.

    Both inputs must have orthonormal columns. Computed as the residual
    of projecting the narrower basis onto the other, which equals
    sqrt(sum_i sin^2(theta_i)) over the principal angles but stays
    accurate near zero.
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape[0] != V.shape[0]:
        raise DimensionMismatchError("bases live in different ambient dimensions")
    if V.shape[1] > U.shape[1]:
        U, V = V, U
    residual = V - U @ (U.T @ V)
    return float(np.linalg.norm(residual))
