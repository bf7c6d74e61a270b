"""Metamorphic relations of the estimators.

Each relation transforms a simulated dataset and states how theta must
follow: scaling Y by 2 doubles theta (and leaves the selected K and every
error string as they were), permuting the responses permutes theta's
columns, and permuting the rows leaves theta unchanged. Rotating the
responses, Y -> YO with O a random orthogonal m x m matrix, gives theta O
for the homoscedastic methods only: HeteroPCA and the diagonal weights of
the hetero methods are not rotation-equivariant. Every theta is held to
the untransformed fit within REL_TOL in relative Frobenius norm.
Adding X M to Y, with M a fixed p x m matrix, leaves every step-1 residual
and so every basis as it was, and shifts theta by M (I - U U^T): for all
six methods theta(Y + 2XM) - theta(Y) = 2 (theta(Y + XM) - theta(Y)), and
ols, with the empty basis, gives theta(Y + XM) = theta(Y) + M.
K under a row permutation is not checked here: the selector's ratio test
reads round-off eigenvalues past a surface's rank, so at n < m its answer
can change with the row order. That is a known defect of the selector.
"""

from functools import lru_cache

import numpy as np
import pytest

from deconfound import bench
from deconfound.estimators import DEFAULT_N_ITER
from deconfound.model import METHODS as ALL_METHODS, Dataset, SimulationConfig
from deconfound.simulate import generate

#: Relative Frobenius tolerance for every theta relation, fixed before the relations were run.
REL_TOL = 1e-10
METHODS = ("interaction_homo", "interaction_hetero", "non_interaction_homo", "non_interaction_hetero")
#: The methods whose fits are equivariant under a rotation of the responses.
HOMO_METHODS = ("interaction_homo", "non_interaction_homo")
#: (m, n): the paper's two settings and a small n < m point.
SHAPES = {"S1": (25, 1000), "S2": (500, 100), "n40_m60": (60, 40)}
CASES = [(shape, seed) for shape in SHAPES for seed in range(4)]
#: (noise, alpha) by name; the relations other than Y -> Y + XM use alpha6 only.
NOISES = {"homo": ("homoscedastic", 0.0), "alpha6": ("heteroscedastic", 6.0)}
K = 3


@lru_cache(maxsize=None)
def _generated(shape: str, seed: int, noise: str = "alpha6"):
    m, n = SHAPES[shape]
    kind, alpha = NOISES[noise]
    return generate(SimulationConfig(n=n, m=m, p=2, k=K, noise=kind, alpha=alpha, seed=seed))


def _dataset(shape: str, seed: int) -> Dataset:
    return _generated(shape, seed)[0]


def _outcomes(dataset: Dataset, k: int | None, methods=METHODS, truth=None) -> list[tuple[np.ndarray | str, int | None]]:
    """(theta or error string, k_used) of each method, as one bench bundle computes them."""
    outcomes = bench._run_dataset(dataset, methods, k=k, k_star=None, n_iter=DEFAULT_N_ITER, truth=truth)
    return [(str(est) if isinstance(est, Exception) else est.theta, k_used) for est, k_used in outcomes]


@lru_cache(maxsize=None)
def _known(shape: str, seed: int) -> tuple[np.ndarray, ...]:
    """theta of each method with K known on the untransformed dataset; every fit must succeed."""
    outcomes = _outcomes(_dataset(shape, seed), K)
    assert all(not isinstance(theta, str) for theta, _ in outcomes), outcomes
    return tuple(theta for theta, _ in outcomes)


def _assert_close(got: np.ndarray | str, want: np.ndarray, method: str) -> None:
    assert not isinstance(got, str), f"{method}: {got}"
    err = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert err <= REL_TOL, f"{method}: relative theta error {err:.2e} > {REL_TOL:.0e}"


@pytest.mark.parametrize("shape, seed", CASES)
def test_scaling_y_scales_theta(shape, seed):
    ds = _dataset(shape, seed)
    scaled = Dataset(X=ds.X, Y=2.0 * ds.Y)
    for method, theta, (got, _) in zip(METHODS, _known(shape, seed), _outcomes(scaled, K)):
        _assert_close(got, 2.0 * theta, method)
    for method, (theta, k_used), (got, k_got) in zip(METHODS, _outcomes(ds, None), _outcomes(scaled, None)):
        assert k_got == k_used, method
        if isinstance(theta, str):
            assert got == theta, method
        else:
            _assert_close(got, 2.0 * theta, method)


@pytest.mark.parametrize("shape, seed", CASES)
def test_permuting_responses_permutes_theta(shape, seed):
    ds = _dataset(shape, seed)
    perm = np.random.default_rng(seed).permutation(ds.m)
    permuted = Dataset(X=ds.X, Y=ds.Y[:, perm])
    for method, theta, (got, _) in zip(METHODS, _known(shape, seed), _outcomes(permuted, K)):
        _assert_close(got, theta[:, perm], method)


@pytest.mark.parametrize("shape, seed", CASES)
def test_permuting_rows_leaves_theta(shape, seed):
    ds = _dataset(shape, seed)
    perm = np.random.default_rng(seed).permutation(ds.n)
    permuted = Dataset(X=ds.X[perm], Y=ds.Y[perm])
    for method, theta, (got, _) in zip(METHODS, _known(shape, seed), _outcomes(permuted, K)):
        _assert_close(got, theta, method)


@pytest.mark.parametrize("shape, seed", CASES)
def test_rotating_responses_rotates_homoscedastic_theta(shape, seed):
    ds = _dataset(shape, seed)
    rotation, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((ds.m, ds.m)))
    rotated = Dataset(X=ds.X, Y=ds.Y @ rotation)
    known = dict(zip(METHODS, _known(shape, seed)))
    for method, (got, _) in zip(HOMO_METHODS, _outcomes(rotated, K, HOMO_METHODS)):
        _assert_close(got, known[method] @ rotation, method)


@pytest.mark.parametrize("noise", NOISES)
@pytest.mark.parametrize("shape, seed", CASES)
def test_adding_x_times_m_shifts_theta_linearly(shape, seed, noise):
    ds, truth = _generated(shape, seed, noise)
    shift = np.random.default_rng(seed).standard_normal((ds.p, ds.m))
    base, once, twice = (
        dict(zip(ALL_METHODS, (got for got, _ in _outcomes(Dataset(X=ds.X, Y=ds.Y + c * (ds.X @ shift)), K, ALL_METHODS, truth))))
        for c in (0.0, 1.0, 2.0)
    )
    for method in ALL_METHODS:
        fits = (base[method], once[method], twice[method])
        assert not any(isinstance(theta, str) for theta in fits), f"{method}: {fits}"
        _assert_close(twice[method] - base[method], 2.0 * (once[method] - base[method]), method)
    _assert_close(once["ols"], base["ols"] + shift, "ols")
