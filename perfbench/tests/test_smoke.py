"""Tiny-size smoke test of the benchmark, so that it does not rot.

    python3 -m pytest perfbench/tests -q

Runs every workload at a tiny problem size, untraced and traced, and
checks that each metric named in BENCHMARK.json is emitted with its
unit, and that the benchmark refuses to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The end-to-end names the report prints beyond BENCHMARK.json's list.
REPORT_ONLY = {"failed_frac": "frac", "bundles_per_s.w2": "1/s"}
TINY = {"s1_homo": (12, 80), "s2_hetero": (30, 20), "s2_autok": (30, 20), "cv_stress": (30, 60)}


def tiny(name):
    m, n = TINY[name]
    return replace(wl.WORKLOADS[name], m=m, n=n)


def metric_lines(text):
    """{name: unit} from the report's 'metric NAME VALUE UNIT n=...' lines."""
    out = {}
    for line in text.splitlines():
        if line.startswith("metric "):
            _, name, _, unit, *_ = line.split()
            out[name] = unit
    return out


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, capsys, tmp_path):
    w = tiny(name)
    _, inputs = run.set_up(wl, w, 1, tmp_path)
    result = run.measure(wl, w, seed=1, seconds=0.01, trace=trace, setups=[0.5], inputs=inputs)
    printed = capsys.readouterr().out
    assert json.loads(printed.strip().splitlines()[-1]) == result
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    lines = metric_lines(printed)
    for metric in spec:
        assert lines[metric["name"]] == metric["unit"]
    for metric, unit in REPORT_ONLY.items():
        assert lines[metric] == unit
    assert result["attempted"] >= 1
    if wl.WORKLOADS[name].k_policy == "known":
        assert result["correct"] and result["failed"] == 0, printed


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "s1_homo", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fresh_setup_runs_in_a_new_process():
    assert 0 < run.fresh_setup_s("s1_homo", 1) < run.SETUP_TIMEOUT_S
