import re

import numpy as np
import pytest

from deconfound.errors import DataError, DimensionMismatchError, NonFiniteError
from deconfound.model import (
    Dataset,
    DebiasedEstimate,
    FirstStageFit,
    GroundTruth,
    ProjectionBasis,
    SimulationConfig,
    validate,
)


class TestDataset:
    def test_valid(self):
        ds = Dataset(X=np.zeros((3, 2)), Y=np.ones((3, 4)))
        validate(ds)
        assert (ds.n, ds.p, ds.m) == (3, 2, 4)

    def test_row_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Dataset(X=np.zeros((3, 2)), Y=np.zeros((4, 4)))

    def test_nan_reports_coordinates(self):
        y = np.ones((3, 4))
        y[1, 2] = np.nan
        with pytest.raises(NonFiniteError, match="row 1, column 2"):
            Dataset(X=np.zeros((3, 2)), Y=y)

    def test_inf_rejected(self):
        x = np.zeros((2, 2))
        x[0, 0] = np.inf
        with pytest.raises(NonFiniteError):
            Dataset(X=x, Y=np.zeros((2, 1)))

    @pytest.mark.parametrize("p, m", [(0, 4), (2, 0), (0, 0)])
    def test_zero_columns_rejected(self, p, m):
        with pytest.raises(DataError, match=f"^dataset needs at least one covariate and one response: p = {p}, m = {m}$"):
            Dataset(X=np.zeros((3, p)), Y=np.ones((3, m)))

    def test_immutable(self):
        ds = Dataset(X=np.zeros((3, 2)), Y=np.ones((3, 4)))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 1.0


def _truth(p=2, k=2, m=8):
    rng = np.random.default_rng(0)
    return GroundTruth(
        A=rng.standard_normal((p, m)),
        B=rng.standard_normal((k, m)),
        C=tuple(rng.standard_normal((k, m)) for _ in range(p)),
        psi=rng.standard_normal((p, k)),
        sigma_w=1.0,
        tau2=np.ones(m),
    )


class TestGroundTruth:
    def test_valid(self):
        truth = _truth()
        assert (truth.p, truth.k, truth.m) == (2, 2, 8)
        assert truth.stacked_hidden_effects().shape == (6, 8)

    def test_wrong_c_count(self):
        truth = _truth()
        with pytest.raises(DimensionMismatchError):
            GroundTruth(
                A=truth.A, B=truth.B, C=truth.C[:1], psi=truth.psi,
                sigma_w=1.0, tau2=truth.tau2,
            )

    def test_tau2_is_required(self):
        truth = _truth()
        with pytest.raises(TypeError, match="tau2"):
            GroundTruth(A=truth.A, B=truth.B, C=truth.C, psi=truth.psi, sigma_w=1.0)

    @pytest.mark.parametrize("sigma_w", [float("inf"), float("nan")])
    def test_sigma_w_must_be_finite(self, sigma_w):
        truth = _truth()
        with pytest.raises(DataError, match="sigma_w must be finite"):
            GroundTruth(A=truth.A, B=truth.B, C=truth.C, psi=truth.psi, sigma_w=sigma_w, tau2=truth.tau2)

    def test_rank_budget(self):
        rng = np.random.default_rng(1)
        with pytest.raises(DataError, match="exceeds m"):
            GroundTruth(
                A=rng.standard_normal((2, 5)),
                B=rng.standard_normal((2, 5)),
                C=tuple(rng.standard_normal((2, 5)) for _ in range(2)),
                psi=rng.standard_normal((2, 2)),
                sigma_w=1.0,
                tau2=np.ones(5),
            )


class TestFirstStageFit:
    def test_l2_row_count_enforced(self):
        with pytest.raises(DimensionMismatchError):
            FirstStageFit(L1=np.zeros((2, 4)), L2=np.zeros((2, 4)), residuals=np.zeros((5, 4)))

    def test_valid(self):
        fit = FirstStageFit(L1=np.zeros((2, 4)), L2=np.zeros((3, 4)), residuals=np.zeros((5, 4)))
        assert (fit.p, fit.m, fit.n) == (2, 4, 5)


class TestProjectionBasis:
    def test_orthonormality_enforced(self):
        with pytest.raises(DataError):
            ProjectionBasis(U=np.ones((4, 2)))

    def test_empty_basis_complement_is_identity(self):
        basis = ProjectionBasis.empty(5)
        assert basis.r == 0
        rows = np.arange(10.0).reshape(2, 5)
        assert np.array_equal(basis.apply_complement(rows), rows)

    def test_r_cannot_exceed_m(self):
        with pytest.raises(DimensionMismatchError):
            ProjectionBasis(U=np.ones((2, 3)))

    def test_projector(self):
        basis = ProjectionBasis(U=np.eye(4)[:, :2])
        proj = basis.projector()
        assert np.allclose(proj, np.diag([1.0, 1.0, 0.0, 0.0]))


class TestDebiasedEstimate:
    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            DebiasedEstimate(theta=np.array([[np.nan]]), method="ols")

    def test_rejects_unknown_method(self):
        with pytest.raises(DataError):
            DebiasedEstimate(theta=np.zeros((1, 1)), method="ridge")

    def test_ols_has_no_k(self):
        est = DebiasedEstimate(theta=np.zeros((1, 2)), method="ols")
        assert est.k_used is None and est.t_used is None


class TestSimulationConfig:
    def test_defaults_valid(self):
        cfg = SimulationConfig(n=100, m=25, p=2, k=3)
        assert cfg.noise == "homoscedastic"
        assert cfg.second_param == "variance"

    def test_rank_budget(self):
        with pytest.raises(DataError):
            SimulationConfig(n=100, m=8, p=2, k=3)

    def test_first_stage_overdetermined(self):
        # p=2 -> p + p(p+1)/2 = 5, so n must be > 5
        with pytest.raises(DataError):
            SimulationConfig(n=5, m=25, p=2, k=3)
        SimulationConfig(n=6, m=25, p=2, k=3)

    @pytest.mark.parametrize("name, value", [("n", 60.5), ("m", 25.0), ("p", True), ("k", 2.0), ("k", np.float64(3.0))])
    def test_non_integer_sizes(self, name, value):
        with pytest.raises(DataError, match=f"^{name} must be a positive integer$"):
            SimulationConfig(**{**dict(n=100, m=25, p=2, k=3), name: value})

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, -1, 2**64])
    def test_seed_must_be_an_unsigned_64_bit_integer(self, seed):
        with pytest.raises(DataError, match="^seed must fit in an unsigned 64-bit integer$"):
            SimulationConfig(n=100, m=25, p=2, k=3, seed=seed)
        SimulationConfig(n=100, m=25, p=2, k=3, seed=np.uint64(2**64 - 1))

    def test_second_param_values(self):
        with pytest.raises(DataError):
            SimulationConfig(n=100, m=25, p=2, k=3, second_param="sd")
        SimulationConfig(n=100, m=25, p=2, k=3, second_param="stddev")

    @pytest.mark.parametrize("name", ["eta_dep", "alpha", "sigma_w"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameter(self, name, value):
        with pytest.raises(DataError, match=f"{name} must be finite"):
            SimulationConfig(n=100, m=25, p=2, k=3, **{name: value})

    def test_homoscedastic_noise_needs_alpha_zero(self):
        with pytest.raises(DataError, match="homoscedastic noise needs alpha = 0, got 6.0"):
            SimulationConfig(n=100, m=25, p=2, k=3, alpha=6.0)
        SimulationConfig(n=100, m=25, p=2, k=3, alpha=6.0, noise="heteroscedastic")


#: One valid keyword set per frozen type, and every stored array as (field, index, name).
_FROZEN = [
    (Dataset, dict(X=np.zeros((3, 2)), Y=np.ones((3, 4))), [("X", None, "X"), ("Y", None, "Y")]),
    (
        GroundTruth,
        dict(
            A=np.ones((2, 8)), B=np.ones((2, 8)), C=(np.ones((2, 8)), np.ones((2, 8))), psi=np.ones((2, 2)),
            sigma_w=1.0, tau2=np.ones(8),
        ),
        [("A", None, "A"), ("B", None, "B"), ("C", 0, "C[0]"), ("C", 1, "C[1]"), ("psi", None, "psi"),
         ("tau2", None, "tau2")],
    ),
    (
        FirstStageFit,
        dict(L1=np.zeros((2, 4)), L2=np.zeros((3, 4)), residuals=np.zeros((5, 4))),
        [("L1", None, "L1"), ("L2", None, "L2"), ("residuals", None, "residuals")],
    ),
    (ProjectionBasis, dict(U=np.eye(4)[:, :2]), [("U", None, "U")]),
    (DebiasedEstimate, dict(theta=np.zeros((2, 4)), method="ols"), [("theta", None, "theta")]),
]


def _with_nan(kwargs: dict, field: str, index) -> dict:
    """kwargs with the last entry of kwargs[field] (or of kwargs[field][index]) set to NaN."""

    def poisoned(a):
        a = np.array(a, dtype=float)
        a.flat[-1] = np.nan
        return a

    value = kwargs[field]
    if index is None:
        value = poisoned(value)
    else:
        value = tuple(poisoned(a) if i == index else a for i, a in enumerate(value))
    return {**kwargs, field: value}


class TestFrozenArraysAreFinite:
    @pytest.mark.parametrize(
        "cls, kwargs, field, index, name",
        [(cls, kwargs, *where) for cls, kwargs, fields in _FROZEN for where in fields],
        ids=[f"{cls.__name__}.{where[2]}" for cls, _, fields in _FROZEN for where in fields],
    )
    def test_nan_rejected_and_named(self, cls, kwargs, field, index, name):
        cls(**kwargs)
        with pytest.raises(NonFiniteError, match=f"^{re.escape(name)} has a non-finite entry"):
            cls(**_with_nan(kwargs, field, index))
