"""Seeded data generation for the simulation benchmark.

Draws follow the benchmark design: X rows are multivariate normal with
the alternating-sign AR covariance, hidden variables are Z = psi^T X + W,
and responses follow the interaction model plus homoscedastic or
heteroscedastic noise.

Randomness uses the counter-based Philox generator with one substream
per parameter block (X, psi, A, B, C, W, E, v, and the test-split
blocks), so changing n never perturbs the parameter draws. Substream b
of seed s is Philox keyed by SeedSequence(entropy=s, spawn_key=(b,)).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, DimensionMismatchError
from .model import Dataset, GroundTruth, NoiseSpec, SimulationConfig

_BLOCKS = ("X", "psi", "A", "B", "C", "W", "E", "v", "X_test", "W_test", "E_test")

DEFAULT_N_TEST = 5000


def _rng(seed: int, block: str) -> np.random.Generator:
    key = np.random.SeedSequence(entropy=int(seed), spawn_key=(_BLOCKS.index(block),))
    return np.random.Generator(np.random.Philox(key))


def ar_covariance(p: int) -> np.ndarray:
    """Design covariance with entries (-1)^(j+k) * 0.5^|j-k|."""
    idx = np.arange(p)
    signs = (-1.0) ** (idx[:, None] + idx[None, :])
    return signs * 0.5 ** np.abs(idx[:, None] - idx[None, :])


def _normal(rng: np.random.Generator, mean: float, second: float, shape, second_param: str) -> np.ndarray:
    sd = np.sqrt(second) if second_param == "variance" else second
    return mean + sd * rng.standard_normal(shape)


def _draw_design(config: SimulationConfig, n: int, block: str) -> np.ndarray:
    chol = np.linalg.cholesky(ar_covariance(config.p))
    return _rng(config.seed, block).standard_normal((n, config.p)) @ chol.T


def _draw_tau2(config: SimulationConfig) -> np.ndarray:
    """Per-response noise variances m * v^alpha / sum(v^alpha) * (p+1)."""
    v = _rng(config.seed, "v").random(config.m)
    weights = v**config.alpha
    return config.m * weights / weights.sum() * (config.p + 1)


def _draw_noise(
    config: SimulationConfig, noise: NoiseSpec, tau2: np.ndarray | None, n: int, block: str
) -> np.ndarray:
    draws = _rng(config.seed, block).standard_normal((n, config.m))
    if noise.kind == "homoscedastic":
        return np.multiply(np.sqrt(noise.sigma2), draws, out=draws)
    return np.multiply(draws, np.sqrt(tau2)[None, :], out=draws)


def structural_response(X: np.ndarray, Z: np.ndarray, truth: GroundTruth) -> np.ndarray:
    """Noise-free responses A^T x + B^T z + sum_j C_j^T x_j z, one row per sample."""
    out = X @ truth.A
    out += Z @ truth.B
    for j, c in enumerate(truth.C):
        out += (X[:, j : j + 1] * Z) @ c
    return out


def _draw_rows(config: SimulationConfig, truth: GroundTruth, n: int, suffix: str) -> Dataset:
    """n observed rows at the given truth, from the blocks X, W and E with the given suffix."""
    x = _draw_design(config, n, "X" + suffix)
    w = truth.sigma_w * _rng(config.seed, "W" + suffix).standard_normal((n, truth.k))
    # noise is drawn after the response and added in place, so at most two
    # n x m arrays are alive at once
    y = structural_response(x, x @ truth.psi + w, truth)
    y += _draw_noise(config, truth.noise, truth.tau2, n, "E" + suffix)
    return Dataset(X=x, Y=y)


def generate(config: SimulationConfig) -> tuple[Dataset, GroundTruth]:
    """Draw one (Dataset, GroundTruth) pair for the given configuration."""
    p, k, m = config.p, config.k, config.m
    sp = config.second_param
    psi = config.eta_dep * _normal(_rng(config.seed, "psi"), 0.5, 0.1, (p, k), sp)
    a = _normal(_rng(config.seed, "A"), 0.5, 0.1, (p, m), sp)
    b = 0.1 + _rng(config.seed, "B").standard_normal((k, m))
    c = 0.1 + _rng(config.seed, "C").standard_normal((p, k, m))
    if config.noise == "homoscedastic":
        noise = NoiseSpec.homoscedastic(1.0)
        tau2 = None
    else:
        noise = NoiseSpec.heteroscedastic(config.alpha)
        tau2 = _draw_tau2(config)
    truth = GroundTruth(
        A=a,
        B=b,
        C=tuple(c[j] for j in range(p)),
        psi=psi,
        sigma_w=config.sigma_w,
        noise=noise,
        tau2=tau2,
    )
    return _draw_rows(config, truth, config.n, ""), truth


def generate_test_split(
    config: SimulationConfig, truth: GroundTruth, n_star: int = DEFAULT_N_TEST
) -> Dataset:
    """Fresh draws of X, W, E with the parameters held at the given truth.

    Uses dedicated substreams of the config seed, so the split is
    reproducible and independent of the training draws.
    """
    if n_star < 1:
        raise DataError("n_star must be a positive integer")
    if truth.p != config.p or truth.m != config.m or truth.k != config.k:
        raise DimensionMismatchError(
            f"truth dimensions (p={truth.p}, m={truth.m}, K={truth.k}) do not match the "
            f"configuration (p={config.p}, m={config.m}, K={config.k})"
        )
    if truth.noise.kind == "heteroscedastic" and truth.tau2 is None:
        raise DataError("heteroscedastic truth is missing its tau2 profile")
    return _draw_rows(config, truth, n_star, "_test")
