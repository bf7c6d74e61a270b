"""Seeded data generation for the simulation benchmark.

Draws follow the benchmark design: X rows are multivariate normal with
the alternating-sign AR covariance, hidden variables are Z = psi^T X + W,
and responses follow the interaction model plus homoscedastic or
heteroscedastic noise.

Randomness uses the counter-based Philox generator with one substream
per parameter block (X, psi, A, B, C, W, E, v, and the test-split
blocks), so changing n never perturbs the parameter draws. Substream b
of seed s is Philox keyed by SeedSequence(entropy=s, spawn_key=(b,)).
Philox draws in sequence, so a block's rows can be drawn in chunks: the
statistics a prediction metric reads from a test split are streamed that
way (split_statistics), without building the split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionMismatchError
from .model import Dataset, GroundTruth, SimulationConfig

_BLOCKS = ("X", "psi", "A", "B", "C", "W", "E", "v", "X_test", "W_test", "E_test")

DEFAULT_N_TEST = 5000
#: Rows of noise drawn at a time by split_statistics: its largest buffer is CHUNK_ROWS x m.
CHUNK_ROWS = 512


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


def _scale_noise(tau2: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Standard normal draws scaled in place to the per-response variances tau2."""
    return np.multiply(draws, np.sqrt(tau2)[None, :], out=draws)


def _draw_noise(config: SimulationConfig, tau2: np.ndarray, n: int, block: str) -> np.ndarray:
    return _scale_noise(tau2, _rng(config.seed, block).standard_normal((n, config.m)))


def _noise_chunks(config: SimulationConfig, tau2: np.ndarray, n: int, block: str):
    """(start row, rows) of _draw_noise(config, tau2, n, block), CHUNK_ROWS rows at a time.

    Every chunk is drawn into one reused buffer, so each must be consumed
    before the next is drawn. Philox draws in sequence, so the chunks
    hold exactly the rows of the one-shot draw.
    """
    rng = _rng(config.seed, block)
    buffer = np.empty((min(n, CHUNK_ROWS), config.m))
    for start in range(0, n, CHUNK_ROWS):
        rows = buffer[: min(CHUNK_ROWS, n - start)]
        yield start, _scale_noise(tau2, rng.standard_normal(out=rows))


def structural_response(X: np.ndarray, Z: np.ndarray, truth: GroundTruth) -> np.ndarray:
    """Noise-free responses A^T x + B^T z + sum_j C_j^T x_j z, one row per sample."""
    out = X @ truth.A
    out += Z @ truth.B
    for j, c in enumerate(truth.C):
        out += (X[:, j : j + 1] * Z) @ c
    return out


def _draw_covariates(
    config: SimulationConfig, truth: GroundTruth, n: int, suffix: str
) -> tuple[np.ndarray, np.ndarray]:
    """X and the hidden Z = X psi + W of n rows, from the blocks X and W with the given suffix."""
    x = _draw_design(config, n, "X" + suffix)
    w = truth.sigma_w * _rng(config.seed, "W" + suffix).standard_normal((n, truth.k))
    return x, x @ truth.psi + w


def _draw_rows(config: SimulationConfig, truth: GroundTruth, n: int, suffix: str) -> Dataset:
    """n observed rows at the given truth, from the blocks X, W and E with the given suffix."""
    x, z = _draw_covariates(config, truth, n, suffix)
    # noise is drawn after the response and added in place, so at most two
    # n x m arrays are alive at once
    y = structural_response(x, z, truth)
    y += _draw_noise(config, truth.tau2, n, "E" + suffix)
    return Dataset(X=x, Y=y)


def generate(config: SimulationConfig) -> tuple[Dataset, GroundTruth]:
    """Draw one (Dataset, GroundTruth) pair for the given configuration."""
    p, k, m = config.p, config.k, config.m
    sp = config.second_param
    psi = config.eta_dep * _normal(_rng(config.seed, "psi"), 0.5, 0.1, (p, k), sp)
    a = _normal(_rng(config.seed, "A"), 0.5, 0.1, (p, m), sp)
    b = 0.1 + _rng(config.seed, "B").standard_normal((k, m))
    c = 0.1 + _rng(config.seed, "C").standard_normal((p, k, m))
    tau2 = np.ones(m) if config.noise == "homoscedastic" else _draw_tau2(config)
    truth = GroundTruth(
        A=a,
        B=b,
        C=tuple(c[j] for j in range(p)),
        psi=psi,
        sigma_w=config.sigma_w,
        tau2=tau2,
    )
    return _draw_rows(config, truth, config.n, ""), truth


def _check_split(config: SimulationConfig, truth: GroundTruth, n_star: int) -> None:
    if n_star < 1:
        raise DataError("n_star must be a positive integer")
    if truth.p != config.p or truth.m != config.m or truth.k != config.k:
        raise DimensionMismatchError(
            f"truth dimensions (p={truth.p}, m={truth.m}, K={truth.k}) do not match the "
            f"configuration (p={config.p}, m={config.m}, K={config.k})"
        )


def generate_test_split(
    config: SimulationConfig, truth: GroundTruth, n_star: int = DEFAULT_N_TEST
) -> Dataset:
    """Fresh draws of X, W, E with the parameters held at the given truth.

    Uses dedicated substreams of the config seed, so the split is
    reproducible and independent of the training draws.
    """
    _check_split(config, truth, n_star)
    return _draw_rows(config, truth, n_star, "_test")


@dataclass(frozen=True)
class SplitStatistics:
    """What the prediction error of any theta reads from a test split.

    The split's responses are Y = F G + E with features F = [X, Z, X_0 Z,
    ..., X_{p-1} Z] and effects G = [A; B; C_0; ...; C_{p-1}], so for
    D = G - [theta; 0] the residual is Y - X theta = F D + E.
    """

    gram: np.ndarray  # F^T F
    cross: np.ndarray  # F^T E
    noise_ss: float  # ||E||^2
    effects: np.ndarray  # G
    n: int
    p: int

    def mean_squared_error(self, theta: np.ndarray) -> float:
        """Mean of (Y - X theta)^2 over the split's n x m entries."""
        m = self.effects.shape[1]
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.p, m):
            raise DimensionMismatchError(f"theta is {theta.shape} but the test set needs ({self.p}, {m})")
        d = self.effects.copy()
        d[: self.p] -= theta
        # ||F D + E||^2 = <D, F^T F D + 2 F^T E> + ||E||^2; einsum, not BLAS dot, whose
        # threads can take milliseconds to wake for a few thousand products
        sq = np.einsum("ij,ij->", d, self.gram @ d + 2.0 * self.cross) + self.noise_ss
        return float(sq) / (self.n * m)


def split_statistics(
    config: SimulationConfig, truth: GroundTruth, n_star: int = DEFAULT_N_TEST
) -> SplitStatistics:
    """The statistics of generate_test_split(config, truth, n_star), in one streamed pass.

    Draws the same X, W and E as the split, but E only CHUNK_ROWS rows at a
    time, so no n_star x m array is built. Arguments are checked as
    generate_test_split checks them.
    """
    _check_split(config, truth, n_star)
    x, z = _draw_covariates(config, truth, n_star, "_test")
    features = np.hstack([x, z] + [x[:, j : j + 1] * z for j in range(truth.p)])
    cross = np.zeros((features.shape[1], truth.m))
    noise_ss = 0.0
    for start, e in _noise_chunks(config, truth.tau2, n_star, "E_test"):
        cross += features[start : start + len(e)].T @ e
        noise_ss += float(np.einsum("ij,ij->", e, e))
    return SplitStatistics(
        gram=features.T @ features,
        cross=cross,
        noise_ss=noise_ss,
        effects=np.vstack((truth.A, truth.B) + truth.C),
        n=n_star,
        p=truth.p,
    )
