"""Eigenspace extraction, projection-basis construction, and rank selection."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateBasisWarning, DimensionMismatchError, NonFiniteError, NumericalError
from .model import ProjectionBasis, _is_integer, _require_finite

#: Singular-value ratio below which a concatenated basis counts as degenerate.
DEGENERACY_RTOL = 1e-8

#: Columns the block iteration carries beyond the k it returns.
BLOCK_OVERSAMPLE = 10
#: Operator products the block iteration takes per orthonormalization and Rayleigh-Ritz step.
BLOCK_POWER = 3
#: Smallest m, in block widths k + BLOCK_OVERSAMPLE, at which HeteroPCA's block iteration replaces eigh
#: (it breaks even with a 5-step eigh loop below 6 widths for k = 3 and near 7 for k = 1 and 5; at 8 it takes
#: 0.54-0.60, 0.56-0.58 and 0.79-1.35 of the loop's time on n = 1000, alpha 6 phi_B surfaces).
BLOCK_MIN_WIDTHS = 8
#: The same size rule for one top-k block (top_k_eigenvectors), which starts cold and replaces one
#: eigh, not a loop of them. Its time over one eigh's on n = 1000 interaction surfaces of true rank
#: k = 1, 3, 5, all certified (2 vCPUs, OpenBLAS 0.3.31, 2 threads): 0.51-0.74 at 8 widths,
#: 0.31-0.42 at 12, 0.22-0.35 at 16, 0.18-0.34 at 20. Break-even is below 8 widths; 16 leaves room
#: for a refused block, which stops at about 1.1-1.2x one eigh at m = 500.
TOP_K_MIN_WIDTHS = 16
#: Davis-Kahan sin-theta bound a block step must certify to be accepted.
BLOCK_TOL = 1e-12
#: Residual over |theta_1| (16 eps) below which a step takes one product: a^3's round-off, ~3x a's, stalls some blocks.
BLOCK_POWER_RTOL = 2.0**-48
#: Operator products a block may take before it falls back to eigh.
BLOCK_MAX_SWEEPS = 60
#: Operator products over which a block's relative residual must halve; one that does not is refused at once.
BLOCK_STALL_SWEEPS = 3


@dataclass(frozen=True)
class SpectrumSummary:
    """Full nonincreasing eigenvalue list of one coefficient surface."""

    eigenvalues: np.ndarray
    source: str

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float)
        if vals.ndim != 1:
            raise DimensionMismatchError("eigenvalues must be a 1-d array")
        if not np.isfinite(vals).all():
            raise NonFiniteError(f"spectrum {self.source!r} has a non-finite eigenvalue")
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


def _check_k(k, m: int) -> None:
    """DataError unless k is an integer, NumericalError unless 1 <= k <= m."""
    if not _is_integer(k):
        raise DataError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= m:
        raise NumericalError(f"k must satisfy 1 <= k <= m = {m}, got {k}")


def _as_symmetric(S: np.ndarray, k=None) -> np.ndarray:
    """(S + S^T) / 2 of a square S; with k, also the checks of top_k_eigenvectors and hetero_pca."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got shape {S.shape}")
    if k is not None:
        _check_k(k, S.shape[0])
        _require_finite(S, "S")
    return (S + S.T) / 2.0


def eigen_spectrum(S: np.ndarray, source: str) -> SpectrumSummary:
    """All eigenvalues of the symmetrized matrix, sorted nonincreasing."""
    vals = np.linalg.eigvalsh(_as_symmetric(S))
    return SpectrumSummary(eigenvalues=vals[::-1], source=source)


def top_k_eigenvectors(S: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit eigenvectors of the k algebraically largest eigenvalues, and the eigenvalues found.

    The input is symmetrized first. Returns the m x k eigenvector matrix
    (sign-normalized) and the eigenvalues nonincreasing: the top k when
    the block iteration (_certified_ritz: BLOCK_POWER products of S per
    Rayleigh-Ritz step from the fixed-seed start block, run when m >=
    TOP_K_MIN_WIDTHS * (k + BLOCK_OVERSAMPLE)) certifies k positive
    values, so that the k of largest |lambda| are also the algebraic top
    k; otherwise all m of them from one full eigh (for example below that
    size, on a tie at k, or when the largest |lambda| is negative). In
    both cases the largest |value| returned is the largest |lambda| of S.
    A non-integer k is a DataError, a non-finite S a NonFiniteError.
    """
    sym = _as_symmetric(S, k)
    block = _start_block(sym.shape[0], k, TOP_K_MIN_WIDTHS)
    ritz = None if block is None else _certified_ritz(sym.__matmul__, k, block, positive=True)
    if ritz is not None and np.all(ritz[0][:k] > 0):
        return fix_signs(ritz[1][:, :k]), ritz[0][:k]
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(vals)[::-1]
    return fix_signs(vecs[:, order[:k]]), vals[order]


def hetero_pca(S, k: int, n_iter: int, operator=None) -> np.ndarray:
    """Leading eigenspace of S with the diagonal iteratively re-imputed.

    Starts from S with a zeroed diagonal and alternates: take the best
    rank-k approximation sum_j lambda_j u_j u_j^T over the k largest
    |lambda|, then replace only the diagonal with its diagonal while
    keeping the original off-diagonal entries. Returns the eigenvectors
    of the k largest |lambda| (sign-normalized) after n_iter
    replacements; S is left unchanged. Robust to additive diagonal
    contamination of a low-rank target, which plain eigenvector
    extraction is not.

    S is the m x m matrix, or, with operator = (V -> S V, diag S), a
    function that returns it. With diagonal d, the iterate is V -> S V +
    (d - diag S) o V. When m >= BLOCK_MIN_WIDTHS * (k + BLOCK_OVERSAMPLE),
    each step's top k come from the block iteration (_certified_ritz,
    BLOCK_POWER products per Rayleigh-Ritz step) on that product, started
    from a fixed-seed block and then from the previous step's Ritz block.
    From the first step it does not certify (it cannot on a tie |lambda_k|
    = |lambda_k+1|), or from step 0 below that size, the m x m iterate is
    built once, with the current d on its diagonal, and every step is one
    full eigh of it, ordered by |lambda|.
    """
    if operator is None:
        current = _as_symmetric(S, k)
        np.fill_diagonal(current, 0.0)
        operator = (current.__matmul__, np.zeros(len(current)))
    else:
        current = None
        _check_k(k, operator[1].size)
    if not _is_integer(n_iter):
        raise DataError(f"n_iter must be an integer, got {n_iter!r}")
    if n_iter < 0:
        raise DataError("n_iter must be nonnegative")
    product, diagonal = operator
    block = _start_block(diagonal.size, k, BLOCK_MIN_WIDTHS)
    d = np.zeros(diagonal.size)
    for _ in range(n_iter + 1):
        if block is not None:
            shift = d - diagonal
            ritz = _certified_ritz(lambda v: product(v) + shift[:, None] * v, k, block)
            block = None if ritz is None else ritz[1]
        if block is None:
            if current is None:
                current = _as_symmetric(S(), k)
            np.fill_diagonal(current, d)
            vals, vecs = np.linalg.eigh(current)
            order = np.argsort(np.abs(vals))[::-1][:k]
            vals, vecs = vals[order], vecs[:, order]
        else:
            vals, vecs = ritz[0][:k], block[:, :k]
        d = np.square(vecs) @ vals
    return fix_signs(vecs)


def _start_block(m: int, k: int, min_widths: int) -> np.ndarray | None:
    """The fixed-seed orthonormal m x (k + BLOCK_OVERSAMPLE) start block, or None.

    None when m < min_widths * (k + BLOCK_OVERSAMPLE), where one eigh is
    cheaper.
    """
    width = k + BLOCK_OVERSAMPLE
    if m < min_widths * width:
        return None
    return np.linalg.qr(np.random.default_rng(0).standard_normal((m, width)))[0]


def _certified_ritz(apply, k: int, block: np.ndarray, positive: bool = False) -> tuple[np.ndarray, np.ndarray] | None:
    """Ritz pairs of a symmetric a, given as apply(V) = a @ V, from subspace iteration on the orthonormal block, by |theta| descending.

    Each Rayleigh-Ritz step takes one product a @ block and the eigh of the
    small block^T a block. It returns the Ritz values and vectors U once
    the top k satisfy ||a U_k - U_k Theta_k||_F <= BLOCK_TOL * (|theta_k| -
    |theta_k+1|), which bounds their sin-theta to the exact top-k
    eigenspace (Davis-Kahan); otherwise the next block is the orthonormal
    basis of a^BLOCK_POWER @ block (of a @ block once that residual over
    |theta_1| is at most BLOCK_POWER_RTOL), each extra product taken of the
    previous one times 2^-e. Both sides of the test are scaled by that
    2^-e, with 2^e the power of two just above |theta_1|: that is exact,
    and keeps the norm's squares and the products from overflowing on a
    finite a near the top of the double range. None after BLOCK_MAX_SWEEPS
    products; at once when a product or a Ritz value is not finite, or when
    theta_1 = 0; once that relative residual has not halved over
    BLOCK_STALL_SWEEPS products; and, if positive (the caller takes only
    positive values), once it is below half the gap with a negative theta
    among the top k: that top-k space is resolved.
    """
    relative = []  # the residual over |theta_1| before each product taken
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while len(relative) < BLOCK_MAX_SWEEPS:
            product = apply(block)
            small = block.T @ product
            small = (small + small.T) / 2.0
            if not np.isfinite(small).all():  # as it is whenever product is not finite
                return None
            theta, y = np.linalg.eigh(small)
            order = np.argsort(np.abs(theta))[::-1]
            theta, y = theta[order], y[:, order]
            if theta[0] == 0:  # the stall rule's residual over |theta_1| would be 0 / 0
                return None
            gap = abs(theta[k - 1]) - abs(theta[k])
            e = math.frexp(theta[0])[1]
            scaled = np.ldexp(theta[:k], -e)
            residual = np.ldexp(product @ y[:, :k], -e) - (block @ y[:, :k]) * scaled
            norm = np.linalg.norm(residual)
            if gap > 0 and norm <= math.ldexp(BLOCK_TOL * gap, -e):
                return theta, block @ y
            relative.append(norm / abs(scaled[0]))
            if len(relative) > BLOCK_STALL_SWEEPS and relative[-1] > relative[-1 - BLOCK_STALL_SWEEPS] / 2:
                return None
            if positive and norm <= math.ldexp(gap / 2, -e) and np.any(theta[:k] < 0):
                return None
            for _ in range(BLOCK_POWER - 1 if relative[-1] > BLOCK_POWER_RTOL else 0):
                relative.append(relative[-1])
                product = apply(np.ldexp(product, -e))
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
    if r == 0:
        raise DataError("blocks have no columns")
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
    if not _is_integer(k_star) or k_star < 1:
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
