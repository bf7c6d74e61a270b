import json

import numpy as np
import pytest

from deconfound import io
from deconfound.errors import DataError
from deconfound.model import SimulationConfig
from deconfound.simulate import generate


class TestMatrixCSV:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 3)) * np.pi
        path = tmp_path / "a.csv"
        io.save_matrix_csv(path, a)
        back = io.load_matrix_csv(path)
        assert np.array_equal(a, back)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("c1,c2\n1.5,2.5\n3.5,4.5\n")
        back = io.load_matrix_csv(path, header=True)
        assert np.array_equal(back, [[1.5, 2.5], [3.5, 4.5]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            io.load_matrix_csv(tmp_path / "nope.csv")

    def test_unparsable(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,x\n")
        with pytest.raises(DataError):
            io.load_matrix_csv(path)

    def test_single_row_stays_2d(self, tmp_path):
        path = tmp_path / "r.csv"
        io.save_matrix_csv(path, np.array([[1.0, 2.0]]))
        assert io.load_matrix_csv(path).shape == (1, 2)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        cfg = SimulationConfig(n=20, m=6, p=2, k=1, seed=1)
        ds, _ = generate(cfg)
        io.save_dataset(ds, tmp_path / "X.csv", tmp_path / "Y.csv")
        back = io.load_dataset(tmp_path / "X.csv", tmp_path / "Y.csv")
        assert np.array_equal(ds.X, back.X)
        assert np.array_equal(ds.Y, back.Y)


class TestJSONDocuments:
    def test_ground_truth_round_trip(self, tmp_path):
        for noise, alpha in (("homoscedastic", 0.0), ("heteroscedastic", 4.0)):
            cfg = SimulationConfig(n=20, m=8, p=2, k=2, noise=noise, alpha=alpha, seed=2)
            _, truth = generate(cfg)
            path = tmp_path / "truth.json"
            io.write_json(path, io.ground_truth_to_obj(truth))
            back = io.ground_truth_from_obj(io.read_json(path))
            assert np.array_equal(truth.A, back.A)
            assert np.array_equal(truth.B, back.B)
            assert all(np.array_equal(c1, c2) for c1, c2 in zip(truth.C, back.C))
            assert np.array_equal(truth.psi, back.psi)
            assert np.array_equal(truth.tau2, back.tau2)
            assert truth.sigma_w == back.sigma_w

    def test_malformed_matrix(self):
        with pytest.raises(DataError):
            io.obj_to_matrix({"shape": [2, 2], "data": [1.0]})

    @pytest.mark.parametrize(
        "edit, match",
        [
            # the homoscedastic form of documents written before tau2 was always a list
            (lambda obj: obj.update(tau2=None), "tau2 must be a 1-d array"),
            (lambda obj: obj.pop("tau2"), "missing field 'tau2'"),
            (lambda obj: obj["tau2"].__setitem__(3, -0.5), "tau2 must be nonnegative"),
        ],
        ids=["tau2 null", "tau2 missing", "tau2 negative"],
    )
    def test_bad_noise_inputs_rejected(self, edit, match):
        cfg = SimulationConfig(n=20, m=8, p=2, k=2, noise="heteroscedastic", alpha=4.0, seed=2)
        obj = io.ground_truth_to_obj(generate(cfg)[1])
        io.ground_truth_from_obj(obj)
        edit(obj)
        with pytest.raises(DataError, match=match):
            io.ground_truth_from_obj(obj)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda obj: obj.update(tau2="ones"),
            lambda obj: obj.update(sigma_w="one"),
            lambda obj: obj.update(c=3),
        ],
        ids=["tau2 string", "sigma_w string", "c not a list"],
    )
    def test_mistyped_fields_rejected(self, edit):
        cfg = SimulationConfig(n=20, m=8, p=2, k=2, seed=2)
        obj = io.ground_truth_to_obj(generate(cfg)[1])
        edit(obj)
        with pytest.raises(DataError, match="malformed ground truth document"):
            io.ground_truth_from_obj(obj)


class TestMetricFormatting:
    def test_minus_inf_as_string(self):
        assert io.metric_to_json_value(float("-inf")) == "-inf"

    def test_finite_round_trip(self):
        x = -1.2345678901234567
        assert json.loads(json.dumps(io.metric_to_json_value(x))) == x

    def test_none_passthrough(self):
        assert io.metric_to_json_value(None) is None

    def test_csv_cell(self):
        assert io.format_metric(None) == ""
        assert io.format_metric(float("-inf")) == "-inf"
        assert float(io.format_metric(np.log(2.0))) == np.log(2.0)
