"""Domain types for the confounded multivariate-response regression model.

The observed data are a design matrix X (n x p) and responses Y (n x m).
The generating model adds K hidden variables whose main effects (B) and
per-covariate interaction effects (C_j) confound the direct effects (A).
All matrices follow the convention rows = latent/covariate dimension,
columns = m, so the direct-effect matrix A is p x m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionMismatchError, NonFiniteError

#: Tags for every estimation method exposed by the package.
METHODS = (
    "ols",
    "oracle",
    "non_interaction_homo",
    "non_interaction_hetero",
    "interaction_homo",
    "interaction_hetero",
)

#: Max-abs tolerance for orthonormality of projection bases.
ORTHONORMAL_TOL = 1e-10

NOISE_KINDS = ("homoscedastic", "heteroscedastic")


def _freeze(a: np.ndarray, name: str, ndim: int = 2) -> np.ndarray:
    """Copy to a read-only, finite float64 array with the expected rank."""
    arr = np.array(a, dtype=float)
    if arr.ndim != ndim:
        raise DimensionMismatchError(f"{name} must be a {ndim}-d array, got shape {arr.shape}")
    _require_finite(arr, name)
    arr.setflags(write=False)
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(np.atleast_2d(arr)))[0]
        raise NonFiniteError(f"{name} has a non-finite entry at row {bad[0]}, column {bad[1]}")


def _is_integer(value) -> bool:
    """True for an int or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def interaction_pairs(p: int) -> tuple[tuple[int, int], ...]:
    """Ordered covariate pairs (j, k), j <= k, in lexicographic order."""
    return tuple((j, k) for j in range(p) for k in range(j, p))


@dataclass(frozen=True)
class Dataset:
    """Observed covariates X (n x p) and responses Y (n x m)."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", _freeze(self.X, "X"))
        object.__setattr__(self, "Y", _freeze(self.Y, "Y"))
        if self.X.shape[0] != self.Y.shape[0]:
            raise DimensionMismatchError(
                f"X and Y must have the same number of rows: {self.X.shape[0]} != {self.Y.shape[0]}"
            )
        if self.X.shape[0] < 1:
            raise DataError("dataset needs at least one sample")
        if self.p < 1 or self.m < 1:
            raise DataError(f"dataset needs at least one covariate and one response: p = {self.p}, m = {self.m}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def m(self) -> int:
        return self.Y.shape[1]


def validate(dataset: Dataset) -> None:
    """Re-check the Dataset invariants; raises on violation.

    Constructed Dataset objects are already validated; this is the public
    hook for callers holding one of unknown provenance.
    """
    Dataset(X=dataset.X, Y=dataset.Y)


@dataclass(frozen=True)
class GroundTruth:
    """Generating parameters of one simulated problem instance.

    A: (p, m) direct effects. B: (K, m) hidden main effects. C: p matrices
    (K, m) of hidden interaction effects. psi: (p, K) projection of the
    hidden variables onto X. tau2: (m,) per-response noise variances, the
    diagonal of Cov(E); all ones for homoscedastic noise. Test splits reuse
    the same profile.
    """

    A: np.ndarray
    B: np.ndarray
    C: tuple[np.ndarray, ...]
    psi: np.ndarray
    sigma_w: float
    tau2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _freeze(self.A, "A"))
        object.__setattr__(self, "B", _freeze(self.B, "B"))
        object.__setattr__(self, "C", tuple(_freeze(c, f"C[{j}]") for j, c in enumerate(self.C)))
        object.__setattr__(self, "psi", _freeze(self.psi, "psi"))
        object.__setattr__(self, "tau2", _freeze(self.tau2, "tau2", ndim=1))
        p, m = self.A.shape
        k = self.B.shape[0]
        if k < 1:
            raise DataError("need at least one hidden variable (K >= 1)")
        if self.B.shape[1] != m:
            raise DimensionMismatchError(f"B must be (K, {m}), got {self.B.shape}")
        if len(self.C) != p:
            raise DimensionMismatchError(f"C must hold exactly p={p} matrices, got {len(self.C)}")
        for j, c in enumerate(self.C):
            if c.shape != (k, m):
                raise DimensionMismatchError(f"C[{j}] must be ({k}, {m}), got {c.shape}")
        if self.psi.shape != (p, k):
            raise DimensionMismatchError(f"psi must be ({p}, {k}), got {self.psi.shape}")
        if not np.isfinite(self.sigma_w):
            raise DataError(f"sigma_w must be finite, got {self.sigma_w}")
        if not self.sigma_w > 0:
            raise DataError("sigma_w must be positive")
        if (p + 1) * k > m:
            raise DataError(f"(p+1)*K = {(p + 1) * k} exceeds m = {m}")
        if self.tau2.shape != (m,):
            raise DimensionMismatchError(f"tau2 must have length m = {m}, got {self.tau2.shape}")
        if np.any(self.tau2 < 0):
            raise DataError(f"tau2 must be nonnegative, got {float(np.min(self.tau2))}")

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]

    @property
    def k(self) -> int:
        return self.B.shape[0]

    def stacked_hidden_effects(self) -> np.ndarray:
        """Stack B and all C_j into the ((p+1)K, m) hidden-effect matrix."""
        return np.vstack((self.B,) + self.C)


@dataclass(frozen=True)
class FirstStageFit:
    """Coefficients and residuals of the interaction-expanded regression.

    L1 holds the p linear-term coefficient rows, L2 the p(p+1)/2
    interaction rows in lexicographic (j, k) order with j <= k.
    """

    L1: np.ndarray
    L2: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "L1", _freeze(self.L1, "L1"))
        object.__setattr__(self, "L2", _freeze(self.L2, "L2"))
        object.__setattr__(self, "residuals", _freeze(self.residuals, "residuals"))
        p, m = self.L1.shape
        if self.L2.shape != (len(interaction_pairs(p)), m):
            raise DimensionMismatchError(
                f"L2 must be ({len(interaction_pairs(p))}, {m}), got {self.L2.shape}"
            )
        if self.residuals.shape[1] != m:
            raise DimensionMismatchError(
                f"residuals must have m = {m} columns, got {self.residuals.shape[1]}"
            )

    @property
    def p(self) -> int:
        return self.L1.shape[0]

    @property
    def m(self) -> int:
        return self.L1.shape[1]

    @property
    def n(self) -> int:
        return self.residuals.shape[0]


@dataclass(frozen=True)
class ProjectionBasis:
    """Orthonormal basis U (m x r) of the hidden-effect column space.

    Defines the projector P = U U^T and its complement I - P. r = 0 is
    the empty basis, for which the complement is the identity.
    """

    U: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "U", _freeze(self.U, "U"))
        m, r = self.U.shape
        if r > m:
            raise DimensionMismatchError(f"basis has r = {r} columns but only m = {m} rows")
        gram = self.U.T @ self.U
        if r and float(np.max(np.abs(gram - np.eye(r)))) > ORTHONORMAL_TOL:
            raise DataError("basis columns are not orthonormal to tolerance")

    @classmethod
    def empty(cls, m: int) -> "ProjectionBasis":
        return cls(U=np.zeros((m, 0)))

    @property
    def m(self) -> int:
        return self.U.shape[0]

    @property
    def r(self) -> int:
        return self.U.shape[1]

    def projector(self) -> np.ndarray:
        """Dense m x m projector P = U U^T."""
        return self.U @ self.U.T

    def apply_complement(self, rows: np.ndarray) -> np.ndarray:
        """Right-multiply row vectors by (I - U U^T) without forming P."""
        return rows - (rows @ self.U) @ self.U.T


@dataclass(frozen=True)
class DebiasedEstimate:
    """Estimated direct-effect matrix with method and rank metadata."""

    theta: np.ndarray
    method: str
    k_used: int | None = None
    t_used: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "theta", _freeze(self.theta, "theta"))
        if self.method not in METHODS:
            raise DataError(f"unknown method tag {self.method!r}")
        if self.k_used is not None and self.k_used < 1:
            raise DataError("k_used must be a positive integer when given")
        if self.t_used is not None and self.t_used < 1:
            raise DataError("t_used must be a positive integer when given")

    @property
    def p(self) -> int:
        return self.theta.shape[0]

    @property
    def m(self) -> int:
        return self.theta.shape[1]


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of the simulation design.

    eta_dep scales the dependence between observed and hidden variables,
    alpha the degree of noise heteroscedasticity (0 for homoscedastic
    noise). second_param records whether the 0.1 in the Normal(0.5, 0.1)
    parameter draws is read as a variance or a standard deviation (the
    source is ambiguous).
    """

    n: int
    m: int
    p: int
    k: int
    eta_dep: float = 0.5
    alpha: float = 0.0
    sigma_w: float = 1.0
    noise: str = "homoscedastic"
    seed: int = 0
    second_param: str = "variance"

    def __post_init__(self):
        for name in ("n", "m", "p", "k"):
            if not _is_integer(getattr(self, name)) or getattr(self, name) < 1:
                raise DataError(f"{name} must be a positive integer")
        if (self.p + 1) * self.k > self.m:
            raise DataError(f"(p+1)*K = {(self.p + 1) * self.k} exceeds m = {self.m}")
        if self.n <= self.p + len(interaction_pairs(self.p)):
            raise DataError(
                "n must exceed p + p(p+1)/2 so the first-stage design is overdetermined"
            )
        for name in ("eta_dep", "alpha", "sigma_w"):
            if not np.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eta_dep < 0:
            raise DataError("eta_dep must be nonnegative")
        if self.alpha < 0:
            raise DataError("alpha must be nonnegative")
        if not self.sigma_w > 0:
            raise DataError("sigma_w must be positive")
        if self.noise not in NOISE_KINDS:
            raise DataError(f"unknown noise kind {self.noise!r}")
        if self.noise == "homoscedastic" and self.alpha != 0:
            raise DataError(f"homoscedastic noise needs alpha = 0, got {self.alpha}")
        if not _is_integer(self.seed) or not 0 <= self.seed < 2**64:
            raise DataError("seed must fit in an unsigned 64-bit integer")
        if self.second_param not in ("variance", "stddev"):
            raise DataError("second_param must be 'variance' or 'stddev'")
