"""End-to-end estimator pipelines and the baselines they are compared to.

A Stage runs every method and selector on one dataset, sharing the steps
they have in common; fit_method is its one-shot form. Every estimate is a
DebiasedEstimate tagged with its method name. Pipeline failures carry
the algorithm step (1-5) at which they occurred.
"""

from __future__ import annotations

from contextlib import closing, contextmanager

import numpy as np

from . import regress, spectral
from .errors import DataError, DeconfoundError, DimensionMismatchError, NumericalError
from .model import METHODS, ORTHONORMAL_TOL, Dataset, DebiasedEstimate, GroundTruth, ProjectionBasis, _is_integer, _require_finite
from .spectral import SpectrumSummary

DEFAULT_N_ITER = 5


@contextmanager
def _step(step: int, label: str):
    """Re-raise pipeline errors with the algorithm step that failed."""
    try:
        yield
    except DeconfoundError as err:
        raise type(err)(f"step {step} ({label}): {err}") from err
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"step {step} ({label}): {err}") from err


def _check_positive(value: int | None, name: str, *, optional: bool = False) -> None:
    """DataError unless value is a positive integer, or None where optional."""
    if value is None and optional:
        return
    if not _is_integer(value) or value < 1:
        raise DataError(f"{name} must be a positive integer, got {value}")


def _family(method: str) -> str:
    """The selector family of a method that reads K: "interaction" or "non_interaction"."""
    return "interaction" if method.startswith("interaction") else "non_interaction"


class Stage:
    """The estimator's steps on one dataset, shared by the fits and selectors that read them.

    fit(method, ...) runs one method, select_k(family, k_star) a family's
    rank selector, and spectra(family) returns what that selector reads.
    A family is a selector name: "interaction" reads the interaction
    regression's residuals and their surfaces phi_B and phi_C(j), each a
    contraction of the residual outer products with diagonal weights;
    "non_interaction" reads the linear fit's residuals and their one
    surface phi_B_mean = (e^T e) / n. Everything else is the same path.

    Computes each quantity at most once, on first use: a family's
    surfaces and their top-k eigenvectors, and each family's K. A failure
    is kept and raised again to every later reader, so all of them report
    the same step. close() drops it all; make a stage with
    contextlib.closing, so that this happens even while an escaped
    error's traceback holds the stage.

    At n < m every surface lies in the row space of its residuals. There
    HeteroPCA (both families) runs on the product V -> eps^T (w o (eps V))
    (see _operator), and every other top-k block comes from an r x r core
    of the residuals' n x n Gram (see _cores and top_k). An m x m surface
    is built only when the selector reads it, or when a step on the
    product or the Gram factor is not certified.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.names = {
            "interaction": ["phi_B"] + [f"phi_C[{j}]" for j in range(dataset.p)],
            "non_interaction": ["phi_B_mean"],
        }
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
        """compute() kept at n < m, where the surfaces and the cores both read it; at n >= m it is read once."""
        return self._once(key, compute) if self.factored else compute()

    def _residuals(self, family: str) -> np.ndarray:
        """The family's step-1 residuals: of the interaction regression, or of the linear fit."""

        def compute():
            if family == "non_interaction":
                return _linear_residuals(self.dataset)
            with _step(1, "interaction regression"):
                return regress.fit_first_stage(self.dataset).residuals

        return self._shared(("residuals", family), compute)

    def _rule(self, family: str, eps: np.ndarray, which: list[int]) -> list[np.ndarray]:
        """Step 3: the family's surfaces `which`, built from the outer products of the rows of eps."""
        with _step(3, "covariance regression"):
            if family == "non_interaction":
                surfaces = [(eps.T @ eps) / self.dataset.n]
            else:
                weights = self._shared("weights", lambda: regress.diagonal_weights(self.dataset.X))
                surfaces = regress.fit_diagonal_surfaces(eps, weights, which)
            for i, surface in zip(which, surfaces):
                _require_finite(surface, self.names[family][i])
            return surfaces

    def surface(self, family: str, i: int) -> np.ndarray:
        """The family's m x m surface i (for interaction, 0 is phi_B and j + 1 is phi_C(j)), built on first read.

        At n >= m every reader reads all of them, so the first read builds
        them together and the n x m residuals are not kept: keeping them at
        m=500, n=1000 (2 vCPUs, OpenBLAS) raised a no-interaction fit from
        about 35 to 39 ms and the peak RSS from 85 to 90 MB.
        """
        if self.factored:
            return self._once(("surface", family, i), lambda: self._rule(family, self._residuals(family), [i])[0])
        every = list(range(len(self.names[family])))
        return self._once(("surfaces", family), lambda: self._rule(family, self._residuals(family), every))[i]

    def _cores(self, family: str) -> tuple[np.ndarray, list[np.ndarray]] | None:
        """(M, cores), each surface (eps^T M) core (eps^T M)^T, from one eigh of the n x n Gram eps eps^T = U Lambda U^T.

        Keeps the r pairs with lambda >= c lambda_1, c = u / ORTHONORMAL_TOL, u =
        2^-53, so that eps^T M, M = U_r Lambda_r^{-1/2}, is orthonormal to about u
        lambda_1 / lambda_r <= ORTHONORMAL_TOL (Stathopoulos & Wu 2002); each r x r
        core is the family's rule applied to the rows of U_r Lambda_r^{1/2}. None
        unless the Gram is finite, lambda_1 is normal and every dropped |lambda|
        is at most n 2^-52 lambda_1.
        """

        def factor():
            eps = self._residuals(family)
            with np.errstate(over="ignore", invalid="ignore"):
                gram = eps @ eps.T
            if not np.isfinite(gram).all():
                return None
            with _step(4, "eigenspace extraction"):
                lam, u = np.linalg.eigh(gram)
            top, kept = lam[-1], lam >= 2.0**-53 / ORTHONORMAL_TOL * lam[-1]
            if not top >= np.finfo(float).tiny or np.any(np.abs(lam[~kept]) > self.dataset.n * 2.0**-52 * top):
                return None
            root = np.sqrt(lam[kept])
            return u[:, kept] / root, self._rule(family, u[:, kept] * root, list(range(len(self.names[family]))))

        return self._once(("cores", family), factor)

    def _operator(self, family: str):
        """(V -> S V, diag S) for the family's surface 0, S = eps^T diag(w) eps, from the kept residuals and weight row.

        None at n >= m, and unless n m ||w||_1 max|eps|^2, a bound on every
        sum that S or a product forms, is below 2^1022.
        """

        def compute():
            n, m = self.dataset.n, self.dataset.m
            eps = self._residuals(family)
            with _step(3, "covariance regression"):
                w = np.full(n, 1.0 / n) if family == "non_interaction" else self._shared("weights", lambda: regress.diagonal_weights(self.dataset.X))[0]
            if not np.max(np.abs(eps)) < np.sqrt(2.0**1022 / (n * m * np.abs(w).sum())):
                return None
            return (lambda v: eps.T @ (w[:, None] * (eps @ v))), w @ np.square(eps)

        return self._once(("operator", family), compute) if self.factored else None

    def top_k(self, family: str, i: int, k: int) -> np.ndarray:
        """Top-k eigenvectors of the family's surface i. Raises step-4 errors.

        At n < m they are the core's top k y, mapped to eps^T M y (see
        _cores), when the Gram factor is certified, k <= r, and the core's
        k-th eigenvalue is positive beyond round-off (SV_RTOL of its largest
        |eigenvalue|, the first certified Ritz value when the block iteration
        certified the core, else the full spectrum's). Otherwise (a refused
        factor, or top k that reach the surface's null space), and at n >= m,
        they are spectral.top_k_eigenvectors' of the m x m surface.
        """

        def compute():
            cores = self.factored and self._cores(family)
            if cores and k <= cores[0].shape[1]:
                with _step(4, "eigenspace extraction"):
                    y, vals = spectral.top_k_eigenvectors(cores[1][i], k)
                if vals[k - 1] > regress.SV_RTOL * np.max(np.abs(vals)):
                    return spectral.fix_signs(self._residuals(family).T @ (cores[0] @ y))
            matrix = self.surface(family, i)
            with _step(4, "eigenspace extraction"):
                return spectral.top_k_eigenvectors(matrix, k)[0]

        return self._once(("top_k", family, i, k), compute)

    def spectra(self, family: str) -> list[SpectrumSummary]:
        """What the family's selector reads: the eigenvalues of each of its m x m surfaces."""
        if family not in self.names:
            raise DataError(f"unknown selector family {family!r}; known: {', '.join(self.names)}")
        return [spectral.eigen_spectrum(self.surface(family, i), name) for i, name in enumerate(self.names[family])]

    def select_k(self, family: str, k_star: int) -> int:
        """The family's rank estimate: spectral.select_k over its spectra, bounded by k_star."""
        return self._once(("k", family, k_star), lambda: spectral.select_k(self.spectra(family), k_star))

    def fit(
        self, method: str, *, k: int | None = None, n_iter: int = DEFAULT_N_ITER, truth: GroundTruth | None = None
    ) -> DebiasedEstimate:
        """One method's estimate: its projection basis, then step 5, the projected least squares.

        "ols" projects nothing. "oracle" projects out the true hidden
        effects (oracle_basis; the benchmark floor, not available in
        practice). "interaction_homo" projects out the top-k eigenvectors
        of phi_B and of each phi_C(j); "interaction_hetero" takes phi_B's
        from HeteroPCA with n_iter passes. "non_interaction_homo" and
        "_hetero" assume no observed-hidden interaction and project out
        the top k of the linear fit's mean residual outer product, plain
        or through HeteroPCA. Bad arguments raise before any step runs.
        """
        dataset = self.dataset
        if method not in METHODS:
            raise DataError(f"unknown method tag {method!r}")
        hetero = method.endswith("_hetero")
        if method == "ols":
            basis, k = ProjectionBasis.empty(dataset.m), None
        elif method == "oracle":
            if truth is None:
                raise DataError("the oracle method requires the ground truth")
            if truth.p != dataset.p or truth.m != dataset.m:
                raise DimensionMismatchError(
                    f"truth dimensions (p={truth.p}, m={truth.m}) do not match dataset "
                    f"(p={dataset.p}, m={dataset.m})"
                )
            basis, k = oracle_basis(truth), truth.k
        else:
            if k is None:
                raise DataError(f"method {method!r} requires k")
            if not _is_integer(k):
                raise DataError(f"k must be a positive integer, got {k}")
            if hetero:
                _check_positive(n_iter, "n_iter")
            if k < 1:
                raise NumericalError(f"k must be a positive integer, got {k}")
            family = _family(method)
            if family == "interaction" and (dataset.p + 1) * k > dataset.m:
                raise NumericalError(f"(p+1)*K = {(dataset.p + 1) * k} exceeds m = {dataset.m}; cannot project out that many directions")
            if family == "non_interaction":
                if k > dataset.m:
                    raise NumericalError(f"k = {k} exceeds m = {dataset.m}")
                if dataset.n <= dataset.p:
                    raise NumericalError(f"need n > p: n = {dataset.n}, p = {dataset.p}")
            if hetero:
                operator = self._operator(family)
                phi_b = (lambda: self.surface(family, 0)) if operator else self.surface(family, 0)
                with _step(4, "eigenspace extraction"):
                    u_b = spectral.hetero_pca(phi_b, k, n_iter, operator)
            else:
                u_b = self.top_k(family, 0, k)
            blocks = [u_b] + [self.top_k(family, i, k) for i in range(1, len(self.names[family]))]
            if len(blocks) == 1:
                basis = ProjectionBasis(U=u_b)
            else:
                with _step(4, "eigenspace extraction"):
                    basis = spectral.build_projection(blocks)
        with _step(5, "projected least squares"):
            return regress.fit_projected_ols(dataset, basis, method=method, k_used=k, t_used=n_iter if hetero else None)


def _linear_residuals(dataset: Dataset) -> np.ndarray:
    """Residuals of the linear fit of Y on X."""
    with _step(1, "linear regression"):
        theta_lin = regress.least_squares(dataset.X, dataset.Y)
    return dataset.Y - dataset.X @ theta_lin


def oracle_basis(truth: GroundTruth) -> ProjectionBasis:
    """Orthonormal basis of the column space of the stacked hidden effects.

    Computed from an SVD of the transposed stack rather than the literal
    D^T (D D^T)^{-1} D projector formula, for conditioning; the resulting
    projector annihilates B^T and every C_j^T.
    """
    return spectral.build_projection([truth.stacked_hidden_effects().T])


def fit_method(
    dataset: Dataset, method: str, *, k: int | None = None, n_iter: int = DEFAULT_N_ITER, truth: GroundTruth | None = None
) -> DebiasedEstimate:
    """One method on one dataset: Stage.fit on a stage of its own, released on return."""
    with closing(Stage(dataset)) as stage:
        return stage.fit(method, k=k, n_iter=n_iter, truth=truth)
