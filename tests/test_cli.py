import json

import numpy as np
import pytest

from deconfound import io, regress, spectral
from deconfound.cli import main
from deconfound.model import Dataset, SimulationConfig
from deconfound.simulate import generate


def _write_dataset(tmp_path, n=60, m=10, p=2, k=2, seed=1):
    ds, truth = generate(SimulationConfig(n=n, m=m, p=p, k=k, seed=seed))
    io.save_dataset(ds, tmp_path / "X.csv", tmp_path / "Y.csv")
    return ds, truth


class TestSimulateCommand:
    def test_happy_path(self, tmp_path):
        out = tmp_path / "d"
        code = main([
            "simulate", "--n", "100", "--m", "25", "--p", "2", "--k", "3",
            "--eta", "0.5", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        assert (out / "X.csv").exists() and (out / "Y.csv").exists() and (out / "truth.json").exists()
        x = io.load_matrix_csv(out / "X.csv")
        y = io.load_matrix_csv(out / "Y.csv")
        assert x.shape == (100, 2) and y.shape == (100, 25)
        truth = io.ground_truth_from_obj(io.read_json(out / "truth.json"))
        assert truth.k == 3

    def test_idempotent(self, tmp_path):
        args = ["simulate", "--n", "50", "--m", "12", "--seed", "3"]
        code1 = main(args + ["--out", str(tmp_path / "a")])
        code2 = main(args + ["--out", str(tmp_path / "b")])
        assert code1 == code2 == 0
        for name in ("X.csv", "Y.csv", "truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_invalid_config_is_data_error(self, tmp_path):
        code = main(["simulate", "--n", "100", "--m", "4", "--k", "3", "--out", str(tmp_path)])
        assert code == 2


class TestFitCommand:
    def test_fixed_k(self, tmp_path):
        _write_dataset(tmp_path)
        out = tmp_path / "theta.csv"
        code = main([
            "fit", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
            "--method", "interaction_homo", "--k", "2", "--out", str(out),
        ])
        assert code == 0
        assert io.load_matrix_csv(out).shape == (2, 10)

    def test_auto_k(self, tmp_path):
        _write_dataset(tmp_path, n=300, m=10, seed=5)
        out = tmp_path / "theta.csv"
        code = main([
            "fit", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
            "--method", "non_interaction_homo", "--k", "auto", "--k-star", "2",
            "--out", str(out),
        ])
        assert code == 0

    def test_missing_file_exits_2(self, tmp_path):
        code = main([
            "fit", "--x", str(tmp_path / "missing.csv"), "--y", str(tmp_path / "missing.csv"),
            "--method", "ols",
        ])
        assert code == 2

    def test_rank_budget_violation_exits_3(self, tmp_path):
        _write_dataset(tmp_path, m=25, k=3)
        code = main([
            "fit", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
            "--method", "interaction_homo", "--k", "400",
        ])
        assert code == 3

    @pytest.mark.parametrize("method", ["interaction_hetero", "non_interaction_hetero"])
    def test_zero_iterations_exits_2(self, tmp_path, method):
        _write_dataset(tmp_path)
        code = main([
            "fit", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
            "--method", method, "--k", "2", "--t", "0",
        ])
        assert code == 2

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_zero_iterations_with_auto_k_exits_2_before_selecting(self, tmp_path, monkeypatch, command):
        # the selector refuses this dataset (exit 3), so it must not run first
        _write_dataset(tmp_path, n=100, m=40, k=3, seed=2)
        work = []
        for owner, name in ((regress, "fit_first_stage"), (spectral, "select_k")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _f=original, **kw: work.append(a) or _f(*a, **kw))
        method = ["--method"] if command == "fit" else ["--methods"]
        code = main([
            command, "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
            *method, "interaction_hetero", "--k", "auto", "--t", "0",
        ])
        assert code == 2
        assert work == []

    def test_idempotent(self, tmp_path):
        _write_dataset(tmp_path)
        args = [
            "fit", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
            "--method", "interaction_homo", "--k", "2",
        ]
        assert main(args + ["--out", str(tmp_path / "t1.csv")]) == 0
        assert main(args + ["--out", str(tmp_path / "t2.csv")]) == 0
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert main(["simulate", "--n", "50", "--m", "12", "--frazzle", "1"]) == 1

    def test_missing_required(self):
        assert main(["simulate", "--n", "50"]) == 1

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "deconfound" in capsys.readouterr().out

    def test_help(self):
        assert main(["--help"]) == 0
        assert main(["fit", "--help"]) == 0

    def test_bad_k_string(self, tmp_path):
        _write_dataset(tmp_path)
        code = main([
            "fit", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
            "--method", "ols", "--k", "many",
        ])
        assert code == 0  # k ignored for ols
        code = main([
            "fit", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
            "--method", "interaction_homo", "--k", "many",
        ])
        assert code == 2


class TestBenchmarkCommand:
    def test_tiny_grid(self, tmp_path):
        out = tmp_path / "bench"
        code = main([
            "benchmark", "--setting", "1", "--noise", "homo",
            "--sweep", "eta_dep=0.5", "--replicates", "1", "--seed", "3",
            "--methods", "ols,oracle", "--out", str(out),
        ])
        assert code == 0
        for name in ("records.csv", "aggregate.csv", "report.json"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert len(report["records"]) == 2

    def test_idempotent(self, tmp_path):
        args = [
            "benchmark", "--setting", "1", "--noise", "homo", "--sweep", "eta_dep=0.3",
            "--replicates", "1", "--seed", "4", "--methods", "ols",
        ]
        assert main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2")]) == 0
        for name in ("records.csv", "aggregate.csv", "report.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_bad_sweep_spec(self, tmp_path):
        assert main(["benchmark", "--sweep", "eta_dep", "--out", str(tmp_path)]) == 2

    def test_zero_iterations_exits_2_without_report(self, tmp_path):
        out = tmp_path / "bench"
        code = main([
            "benchmark", "--setting", "1", "--sweep", "alpha=0", "--noise", "hetero",
            "--replicates", "1", "--methods", "interaction_hetero", "--t", "0", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_negative_k_star_exits_2_without_report(self, tmp_path):
        out = tmp_path / "bench"
        code = main([
            "benchmark", "--setting", "1", "--sweep", "eta_dep=0.5", "--replicates", "1",
            "--methods", "interaction_homo", "--k", "auto", "--k-star", "-1", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_zero_workers_exits_2_without_report(self, tmp_path):
        out = tmp_path / "bench"
        code = main([
            "benchmark", "--setting", "1", "--sweep", "eta_dep=0.5", "--replicates", "1",
            "--methods", "ols", "--workers", "0", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()


class TestSelectKCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "ksel"
        code = main([
            "select-k", "--sigma-w", "1.5", "--k-star", "2", "--setting", "1",
            "--replicates", "2", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "k_selection.json").read_text())
        assert report["k_star"] == 2
        assert len(report["records"]) == 4

    def test_zero_k_star_exits_2(self, tmp_path):
        out = tmp_path / "ksel"
        code = main(["select-k", "--k-star", "0", "--replicates", "1", "--out", str(out)])
        assert code == 2
        assert not out.exists()


class TestCVCommand:
    def test_report_written(self, tmp_path):
        _write_dataset(tmp_path, n=80, m=10, seed=6)
        out = tmp_path / "cv.json"
        code = main([
            "cv", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
            "--folds", "4", "--methods", "ols,interaction_homo", "--k", "2",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["folds"] == 4
        assert set(report["mean_pmse_log"]) == {"ols", "interaction_homo"}

    def test_stdout_when_no_out(self, tmp_path, capsys):
        _write_dataset(tmp_path, n=80, m=10, seed=6)
        code = main([
            "cv", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
            "--folds", "4", "--methods", "ols", "--k", "1",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["folds"] == 4

    @pytest.mark.parametrize("k", ["0", "-1", "many"])
    def test_bad_k_exits_2(self, tmp_path, k):
        _write_dataset(tmp_path, n=80, m=10, seed=6)
        code = main([
            "cv", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
            "--folds", "4", "--methods", "ols,interaction_homo", "--k", k,
        ])
        assert code == 2

    def test_failed_folds_recorded(self, tmp_path, capsys):
        # 6-row training splits fail the interaction method at step 3 in every fold
        rng = np.random.default_rng(17)
        io.save_dataset(
            Dataset(X=rng.standard_normal((8, 2)), Y=rng.standard_normal((8, 5))),
            tmp_path / "X.csv", tmp_path / "Y.csv",
        )
        out = tmp_path / "cv.json"
        code = main([
            "cv", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
            "--folds", "4", "--methods", "ols,interaction_homo", "--k", "1", "--out", str(out),
        ])
        assert code == 0
        assert "(4 failed folds)" in capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report["mean_pmse_log"]["interaction_homo"] is None
        errors = {(r["method"], r["error"] is None) for r in report["records"]}
        assert errors == {("ols", True), ("interaction_homo", False)}

