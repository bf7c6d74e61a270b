import csv
import json

import numpy as np
import pytest

from deconfound import bench, io, regress, spectral
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


class TestBadSweepValues:
    """A bad sweep value, replicate count, k_star or cv seed, a repeated method tag, or alpha != 0 with homoscedastic noise, exits 2 before any dataset is generated or fold is fitted."""

    @pytest.mark.parametrize(
        "args",
        [
            ["benchmark", "--setting", "2", "--sweep", "eta_dep=0.5,0.9,-1", "--replicates", "2"],
            ["benchmark", "--setting", "1", "--sweep", "alpha=0,inf", "--replicates", "1"],
            ["benchmark", "--setting", "1", "--noise", "homo", "--sweep", "alpha=0,6", "--replicates", "1"],
            ["simulate", "--n", "60", "--m", "12", "--k", "2", "--alpha", "6"],
            ["select-k", "--sigma-w", "1,0", "--replicates", "1"],
            ["select-k", "--sigma-w", "1,nan", "--replicates", "1"],
        ],
    )
    def test_exits_2_before_any_bundle(self, tmp_path, monkeypatch, args):
        calls = []
        monkeypatch.setattr(bench, "_run_bundle", lambda job: calls.append(job))
        monkeypatch.setattr(bench, "_run_k_selection_cell", lambda job: calls.append(job))
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 2
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize(
        "args, value",
        [
            (["benchmark", "--setting", "1", "--sweep", "eta_dep=0.5,0.9,0.5", "--replicates", "2"], "eta_dep sweep list repeats the value 0.5"),
            (["select-k", "--sigma-w", "1,1", "--replicates", "1"], "sigma_w sweep list repeats the value 1.0"),
            (["benchmark", "--setting", "1", "--sweep", "eta_dep=0.5", "--replicates", "2", "--methods", "ols,interaction_homo,ols"], "methods list repeats the tag 'ols'"),
            (["cv", "--x", "X.csv", "--y", "Y.csv", "--k", "2", "--methods", "ols,interaction_homo,ols"], "methods list repeats the tag 'ols'"),
        ],
    )
    def test_repeated_value_exits_2_before_any_bundle(self, tmp_path, monkeypatch, capsys, args, value):
        _write_dataset(tmp_path)
        monkeypatch.chdir(tmp_path)
        calls = []
        monkeypatch.setattr(bench, "_run_bundle", lambda job: calls.append(job))
        monkeypatch.setattr(bench, "_run_k_selection_cell", lambda job: calls.append(job))
        monkeypatch.setattr(bench, "_run_dataset", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 2
        assert calls == [] and not out.exists()
        assert capsys.readouterr().err == f"deconfound: data error: {value}\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["benchmark", "--setting", "1", "--sweep", "eta_dep=0.5", "--replicates", "2", "--k", "auto", "--k-star", "30"],
            ["select-k", "--setting", "1", "--sigma-w", "1", "--replicates", "1", "--k-star", "25"],
            ["cv", "--x", "X.csv", "--y", "Y.csv", "--k", "auto", "--k-star", "10", "--methods", "ols,interaction_homo"],
        ],
    )
    def test_k_star_not_below_m_exits_2_before_any_fit(self, tmp_path, monkeypatch, capsys, args):
        # each surface has m eigenvalues, so the ratio test needs k_star + 1 <= m of them
        _write_dataset(tmp_path)
        monkeypatch.chdir(tmp_path)
        calls = []
        monkeypatch.setattr(bench, "_run_bundle", lambda job: calls.append(job))
        monkeypatch.setattr(bench, "_run_k_selection_cell", lambda job: calls.append(job))
        monkeypatch.setattr(bench.estimators, "Stage", lambda dataset: calls.append(dataset))
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 2
        assert calls == [] and not out.exists()
        k_star = args[args.index("--k-star") + 1]
        m = 10 if args[0] == "cv" else 25
        assert capsys.readouterr().err == f"deconfound: data error: k_star must be below m = {m}, got {k_star}: each surface has m eigenvalues\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_cv_seed_outside_64_bits_exits_2_before_any_fold(self, tmp_path, monkeypatch, capsys, seed):
        _write_dataset(tmp_path)
        calls = []
        monkeypatch.setattr(bench, "_run_dataset", lambda *args, **kwargs: calls.append(args))
        code = main(["cv", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"), "--k", "2", "--seed", seed])
        assert code == 2 and calls == []
        assert capsys.readouterr().err == "deconfound: data error: seed must fit in an unsigned 64-bit integer\n"

    def test_zero_replicates_worded_alike(self, tmp_path, capsys):
        assert main(["benchmark", "--sweep", "eta_dep=0.5", "--replicates", "0", "--out", str(tmp_path)]) == 2
        assert main(["select-k", "--sigma-w", "1", "--replicates", "0", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["deconfound: data error: replicates must be a positive integer, got 0"] * 2


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



class TestReportLayout:
    """The columns and keys of every report, and how a missing value and an error are written."""

    def test_benchmark_select_k_and_cv_layout(self, tmp_path):
        bench_out = tmp_path / "bench"
        assert main([
            "benchmark", "--setting", "1", "--sweep", "eta_dep=0.5", "--replicates", "1", "--seed", "0",
            "--methods", "ols,interaction_homo", "--k", "auto", "--k-star", "12", "--out", str(bench_out),
        ]) == 0
        report = json.loads((bench_out / "report.json").read_text())
        assert list(report) == ["sweep_param", "records", "aggregates"]
        record_keys = ["value", "method", "replicate", "sse_log", "pmse_log", "k_used", "error"]
        aggregate_keys = [
            "value", "method", "n_ok", "n_failed", "mean_sse_log", "se_sse_log", "mean_pmse_log", "se_pmse_log",
        ]
        assert [list(rec) for rec in report["records"]] == [record_keys] * 2
        assert [list(row) for row in report["aggregates"]] == [aggregate_keys] * 2
        ols, failed = report["records"]
        assert ols["value"] == 0.5 and ols["k_used"] is None and ols["error"] is None
        assert failed["sse_log"] is failed["pmse_log"] is failed["k_used"] is None
        assert failed["error"].startswith("selection failed: ")
        assert report["aggregates"][0]["se_sse_log"] is None  # one replicate: no standard error

        records_text = (bench_out / "records.csv").read_text()
        assert records_text.splitlines()[0] == "sweep_param,value,method,replicate,sse_log,pmse_log,k_used,error"
        ols_row, failed_row = list(csv.reader(records_text.splitlines()))[1:]
        assert ols_row == [
            "eta_dep", "0.5", "ols", "0", "%.17g" % ols["sse_log"], "%.17g" % ols["pmse_log"], "", "",
        ]
        assert failed_row == ["eta_dep", "0.5", "interaction_homo", "0", "", "", "", failed["error"]]
        aggregate_lines = (bench_out / "aggregate.csv").read_text().splitlines()
        assert aggregate_lines[0] == (
            "sweep_param,value,method,n_ok,n_failed,mean_sse_log,se_sse_log,mean_pmse_log,se_pmse_log"
        )
        assert aggregate_lines[2] == "eta_dep,0.5,interaction_homo,0,1,,,,"

        ksel_out = tmp_path / "ksel"
        assert main([
            "select-k", "--sigma-w", "0.5", "--k-star", "12", "--replicates", "1", "--out", str(ksel_out),
        ]) == 0
        ksel = json.loads((ksel_out / "k_selection.json").read_text())
        assert list(ksel) == ["k_star", "records", "summary"]
        assert [list(rec) for rec in ksel["records"]] == [["sigma_w", "replicate", "selector", "k_hat", "error"]] * 2
        refused, selected = ksel["records"]
        assert refused["k_hat"] is None and refused["error"].startswith("nonpositive eigenvalue")
        assert selected["k_hat"] >= 1 and selected["error"] is None

        rng = np.random.default_rng(17)
        io.save_dataset(
            Dataset(X=rng.standard_normal((8, 2)), Y=rng.standard_normal((8, 5))),
            tmp_path / "X.csv", tmp_path / "Y.csv",
        )
        cv_out = tmp_path / "cv.json"
        assert main([
            "cv", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
            "--folds", "4", "--methods", "ols,interaction_homo", "--k", "1", "--out", str(cv_out),
        ]) == 0
        cv = json.loads(cv_out.read_text())
        assert list(cv) == ["folds", "mean_pmse_log", "records"]
        assert [list(rec) for rec in cv["records"]] == [["fold", "method", "pmse_log", "k_used", "error"]] * 8
        assert cv["records"][0]["k_used"] is None and cv["records"][0]["error"] is None
        assert cv["records"][1] == {
            "fold": 0, "method": "interaction_homo", "pmse_log": None, "k_used": 1,
            "error": "step 3 (covariance regression): covariance regression needs n > 1 + p + p(p+1)/2: "
            "n = 6, columns = 6",
        }
