#!/usr/bin/env python3
"""Benchmark of the deconfound package, one workload per run.

    python3 perfbench/run.py --workload s2_hetero --seed 3 --seconds 22 --trace 0

Run from the root of a source checkout; the package is imported from
./src and nowhere else. With --trace 0 the run measures the end-to-end
metrics; with --trace 1 it wraps every layer from outside the package
and reports per-layer metrics. Either way it prints one line per metric
with its unit and sample count, then, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. Results, the environment
and (when tracing) the spans are also written under .perfbench_run/.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
#: setup_s is the median over this many fresh processes, run one after another:
#: the measuring process itself and SETUP_REPS - 1 set-up-only children.
SETUP_REPS = 3
SETUP_TIMEOUT_S = 60
#: Share of --seconds for the paired untraced and traced bundles of a traced run.
TRACED_SHARE = 0.6
#: Share of --seconds and minimum call count of each phase of an untraced run
#: (None: the workload's min_bundles).
BUDGET = {"bundle": (0.40, None), "grid": (0.15, 1), "fit": (0.20, 3), "select": (0.05, 3), "job": (0.20, 2)}
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

E2E_UNITS = {
    "setup_s": "s",
    "bundle_ms.p50": "ms",
    "bundle_ms.tail": "ms",
    "bundles_per_s.w1": "1/s",
    "fit_ms.interaction_homo.p50": "ms",
    "fit_ms.interaction_hetero.p50": "ms",
    "fit_ms.non_interaction_homo.p50": "ms",
    "fit_ms.non_interaction_hetero.p50": "ms",
    "select_k_ms.p50": "ms",
    "job_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "simulate.generate_ms": "ms",
    "simulate.test_split_ms": "ms",
    "regress.first_stage_ms": "ms",
    "regress.projected_ols_ms": "ms",
    "regress.least_squares_ms": "ms",
    "regress.lstsq_slow_frac": "frac",
    "regress.cov_regression_ms": "ms",
    "regress.cov_regression_calls": "count",
    "regress.first_stage_calls": "count",
    "regress.stage_reuse": "ratio",
    "regress.surfaces_built": "count",
    "spectral.hetero_pca_ms": "ms",
    "spectral.top_k_ms": "ms",
    "spectral.build_projection_ms": "ms",
    "spectral.spectrum_ms": "ms",
    "spectral.select_k_ms": "ms",
    "model.validate_ms": "ms",
    "estimators.self_ms": "ms",
    "bench.metrics_ms": "ms",
    "bench.grid_overhead_ms": "ms",
    "bench.pool_speedup": "ratio",
    "bench.cv_ms": "ms",
    "bundles_per_s.w2": "1/s",
    "io.load_ms": "ms",
    "io.bytes_read": "B",
    "io.write_ms": "ms",
    "cli.self_ms": "ms",
    **{f"kernel.{k}_calls": "count" for k in ("svd", "eigh", "eigvalsh", "lstsq")},
    **{f"kernel.{k}_ms": "ms" for k in ("svd", "eigh", "eigvalsh", "lstsq")},
    "kernel.flops_computed": "flop",
    "kernel.ops_per_byte": "flop/B",
    "trace.overhead_frac": "frac",
}


def tail(values: list[float]) -> tuple[float, int]:
    """Highest percentile with at least ten samples above it, and that percentile.

    With fewer than 20 samples no percentile above the median qualifies,
    and the median is returned as p50.
    """
    n = len(values)
    if n < 20:
        return statistics.median(values), 50
    return sorted(values)[n - 11], (100 * (n - 10)) // n


def blas_runtime() -> dict:
    """Thread count and build string of the BLAS library loaded in this process."""
    import ctypes

    info: dict = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    except OSError:
        return info
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None:
                    info["threads"] = int(threads())
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
        info["library"] = os.path.basename(path)
    return info


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), **blas_runtime()},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def set_up(wl, w, seed, work):
    """Input set-up and one warm-up bundle; returns (seconds, inputs)."""
    from deconfound import bench

    start = time.perf_counter()
    inputs = wl.prepare(w, seed, work)
    bench.run_grid(w.bundle_grid(seed, wl.WARMUP_ROUND * len(w.sweep_values)))
    return time.perf_counter() - start, inputs


def fresh_setup_s(workload: str, seed: int) -> float:
    """Set-up time of a new process of this script: imports, input set-up and warm-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def collect(wl, w, seed, seconds, trace, setups, inputs):
    """Run one workload; returns ({name: (value, unit, samples, note)}, gate, tracer or None).

    `setups` are the set-up times of fresh processes, which setup_s reports.
    """
    from tracing import Tracer

    gate = wl.Gate()
    expected_k = wl.expected_k_hats(w, inputs)
    ref = None
    if seed == DEFAULT_SEED:
        ref = json.loads(REFERENCE.read_text()).get(w.name) if REFERENCE.exists() else None
        if ref is None:
            gate.fail(f"no reference recorded for {w.name}")
    if not trace:
        steps = {
            "bundle": wl.bundle_step(w, seed),
            "grid": wl.grid_step(w.grid(seed)),
            "fit": wl.fit_step(inputs),
            "select": wl.select_step(inputs),
            "job": wl.job_step(w, inputs, gate),
        }
        out = wl.interleave(
            {name: (step, BUDGET[name][0], BUDGET[name][1] or w.min_bundles) for name, step in steps.items()},
            seconds,
        )
        wl.check_phases(w, gate, out, expected_k)
        bundles, grids, fits, selects, jobs = (out[name] for name in steps)
        check_grid(w, bundles, grids, gate)
        if ref is not None:
            wl.check_reference(ref, gate, inputs, bundles, fits, selects, jobs)
        bundle_ms = [1e3 * dt for _, dt, _ in bundles]
        tail_ms, pct = tail(bundle_ms)
        declined = sum(1 for _, _, outcome, _ in selects if not isinstance(outcome, int))
        metrics = {
            "setup_s": (
                statistics.median(setups), len(setups),
                "median over fresh processes of imports, input set-up and one warm-up bundle",
            ),
            "bundle_ms.p50": (statistics.median(bundle_ms), len(bundle_ms), ""),
            "bundle_ms.tail": (tail_ms, len(bundle_ms), f"p{pct}"),
            "bundles_per_s.w1": (
                statistics.median(w.cells / dt for dt, _ in grids), len(grids), f"{w.cells}-cell grid"
            ),
            **{
                f"fit_ms.{m}.p50": (statistics.median(times), len(times), f"{len(fits)} rounds")
                for m in wl.FIT_METHODS
                for times in [[1e3 * dt for _, row in fits for dt, _ in row[m]]]
            },
            "select_k_ms.p50": (
                statistics.median(1e3 * dt for _, dt, _, _ in selects), len(selects),
                f"{declined} of {len(selects)} declined by the ratio test",
            ),
            "job_s": (statistics.median(dt for _, dt, _, _ in jobs), len(jobs), "deconfound " + " ".join(w.job)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1, ""),
        }
        return {k: (v, E2E_UNITS[k], n, note) for k, (v, n, note) in metrics.items()}, gate, None

    # Traced run: each bundle once without and once with the wrappers, in
    # alternating order, so the outputs can be compared and the overhead
    # measured; then one fit round, selector calls, one job and the two-cell
    # pool grid under the wrappers; then that grid at workers=1 and
    # workers=2 without them.
    tracer = Tracer()
    plain_step = wl.bundle_step(w, seed)
    traced_step = wl.bundle_step(w, seed, tracer.span)
    plain, traced = [], []
    start = time.perf_counter()
    while len(plain) < w.min_bundles or time.perf_counter() - start < TRACED_SHARE * seconds:
        j = len(plain)
        for tracing in (False, True) if j % 2 == 0 else (True, False):
            if tracing:
                with tracer.installed():
                    traced.append(traced_step(j))
            else:
                plain.append(plain_step(j))
    plain_fit = wl.fit_step(inputs)(0)
    plain_job = wl.job_step(w, inputs, gate)(0)
    with tracer.installed():
        traced_fit = wl.fit_step(inputs)(0)
        selects = [wl.select_step(inputs)(i) for i in range(3)]
        traced_job = wl.job_step(w, inputs, gate, tracer.span)(0)
        pool = w.pool_grid(seed)
        traced_grid = wl.grid_step(pool, scope=tracer.span)(0)
    grid_w1 = wl.grid_step(pool)(0)
    grid_w2 = wl.grid_step(pool, workers=2)(0)
    wl.check_phases(
        w, gate,
        {"bundle": plain + traced, "fit": [plain_fit, traced_fit], "select": selects, "grid": [grid_w1, grid_w2]},
        expected_k,
    )
    for (j, _, a), (_, _, b) in zip(plain, traced):
        if a.records != b.records:
            gate.fail(f"traced bundle {j} differs from the untraced one")
    for m in wl.FIT_METHODS:
        if not (plain_fit[1][m][0][1].theta == traced_fit[1][m][0][1].theta).all():
            gate.fail(f"traced fit {m} differs from the untraced one")
    if plain_job[3] != traced_job[3]:
        gate.fail("traced job output differs from the untraced one")
    if not grid_w1[1].records == grid_w2[1].records == traced_grid[1].records:
        gate.fail("the workers=2 or traced grid differs from the workers=1 grid")
    check_grid(w, plain, [grid_w1], gate)
    if ref is not None:
        wl.check_reference(ref, gate, inputs, plain, [plain_fit], selects, [plain_job])
    cells = len(grid_w1[1].records) // len(w.methods)
    w1, w2 = cells / grid_w1[0], cells / grid_w2[0]
    overhead_ms = 1e3 * tracer.scope_self_seconds("grid") / cells
    overhead = sum(dt for _, dt, _ in traced) / sum(dt for _, dt, _ in plain) - 1
    return layer_metrics(tracer, w2, w1, overhead_ms, overhead), gate, tracer


def check_grid(w, bundles, grids, gate):
    """Each grid's first-replicate cells must equal the one-cell bundles of round 0."""
    first = {j: report.records for j, _, report in bundles if j < len(w.sweep_values)}
    for _, report in grids:
        for i, value in enumerate(w.sweep_values):
            cells = [r for r in report.records if r.sweep_value == value and r.replicate == 0]
            if cells and i in first and cells != list(first[i]):
                gate.fail(f"grid cell {value} differs from bundle {i}")


def layer_metrics(tracer, w2, w1, grid_overhead_ms, overhead_frac):
    n_b = max(tracer.scope_count("bundle"), 1)
    n_j = max(tracer.scope_count("job"), 1)
    sec_b, count_b, calls_b = tracer.layer_totals("bundle")
    sec_j, count_j, _ = tracer.layer_totals("job")
    kern = tracer.kernel_summary("bundle")

    def per_bundle(name):
        return 1e3 * sec_b.get(name, 0.0) / n_b

    first_calls = calls_b.get("regress.first_stage", 0)
    values = {
        "simulate.generate_ms": per_bundle("simulate.generate"),
        "simulate.test_split_ms": per_bundle("simulate.test_split"),
        "regress.first_stage_ms": per_bundle("regress.first_stage"),
        "regress.projected_ols_ms": per_bundle("regress.projected_ols"),
        "regress.least_squares_ms": per_bundle("regress.least_squares"),
        "regress.lstsq_slow_frac": kern["lstsq_slow_frac"],
        "regress.cov_regression_ms": per_bundle("regress.cov_regression"),
        "regress.cov_regression_calls": calls_b.get("regress.cov_regression", 0) / n_b,
        "regress.first_stage_calls": first_calls / n_b,
        "regress.stage_reuse": n_b / first_calls if first_calls else 0.0,
        "regress.surfaces_built": count_b.get("regress.cov_regression", 0.0) / n_b,
        "spectral.hetero_pca_ms": per_bundle("spectral.hetero_pca"),
        "spectral.top_k_ms": per_bundle("spectral.top_k"),
        "spectral.build_projection_ms": per_bundle("spectral.build_projection"),
        "spectral.spectrum_ms": per_bundle("spectral.spectrum"),
        "spectral.select_k_ms": per_bundle("spectral.select_k"),
        "model.validate_ms": per_bundle("model.validate"),
        "estimators.self_ms": sum(per_bundle(k) for k in sec_b if k.startswith("estimators.")),
        "bench.metrics_ms": per_bundle("bench.metrics"),
        "bench.grid_overhead_ms": grid_overhead_ms,
        "bench.pool_speedup": w2 / w1,
        "bench.cv_ms": 1e3 * sec_j.get("bench.cv", 0.0) / n_j,
        "bundles_per_s.w2": w2,
        "io.load_ms": 1e3 * sec_j.get("io.load", 0.0) / n_j,
        "io.bytes_read": count_j.get("io.load", 0.0) / n_j,
        "io.write_ms": 1e3 * sec_j.get("io.write", 0.0) / n_j,
        "cli.self_ms": 1e3 * sec_j.get("cli.main", 0.0) / n_j,
        **{f"kernel.{k}_calls": kern[f"{k}_calls"] / n_b for k in ("svd", "eigh", "eigvalsh", "lstsq")},
        **{f"kernel.{k}_ms": 1e3 * kern[f"{k}_s"] / n_b for k in ("svd", "eigh", "eigvalsh", "lstsq")},
        "kernel.flops_computed": kern["flops"] / n_b,
        "kernel.ops_per_byte": kern["flops"] / kern["bytes"] if kern["bytes"] else 0.0,
        "trace.overhead_frac": overhead_frac,
    }
    notes = {
        "bench.cv_ms": "per job", "io.load_ms": "per job", "io.bytes_read": "per job",
        "io.write_ms": "per job", "cli.self_ms": "per job",
        "kernel.flops_computed": "computed from shapes", "kernel.ops_per_byte": "computed from shapes",
        "bundles_per_s.w2": "two-cell grid", "bench.pool_speedup": "two-cell grid, w2 / w1",
        "bench.grid_overhead_ms": "two-cell w1 grid, time outside every layer span, per cell",
    }
    samples = {k: (n_j if notes.get(k) == "per job" else n_b) for k in values}
    samples.update({"bundles_per_s.w2": 1, "bench.pool_speedup": 1, "bench.grid_overhead_ms": 1})
    return {
        k: (v, LAYER_UNITS[k], samples[k], notes.get(k, "per bundle")) for k, v in values.items()
    }


def measure(wl, w, seed, seconds, trace, setups, inputs) -> dict:
    """Run, report and save one workload; returns the final JSON object."""
    metrics, gate, tracer = collect(wl, w, seed, seconds, trace, setups, inputs)
    env = environment(seed)
    print(f"perfbench workload={w.name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, n, note) in metrics.items():
        print(f"metric {name} {value:.6g} {unit} n={n}" + (f" ({note})" if note else ""))
    frac = gate.failed / max(gate.attempted, 1)
    print(f"metric failed_frac {frac:.6g} frac n={gate.attempted} (cells, fits, selections and jobs)")
    if not trace:
        print("metric bundles_per_s.w2 - 1/s n=0 (measured in the traced run, --trace 1)")
    for message in gate.wrong:
        print(f"gate {message}")
    if tracer is not None and tracer.missing:
        print("trace not installed (name not found): " + ", ".join(tracer.missing))
    result = {
        "correct": not gate.wrong,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{w.name}-seed{seed}-trace{int(trace)}"
    saved = {"env": env, "samples": {k: v[2] for k, v in metrics.items()}, "gate": gate.wrong, **result}
    stem.with_suffix(".json").write_text(json.dumps(saved, indent=1) + "\n")
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    print(json.dumps(result))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "deconfound" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**40 or args.seconds <= 0:
        print("perfbench: need 0 <= seed < 2**40 and seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import deconfound

    if Path(deconfound.__file__).resolve().parent != SRC / "deconfound":
        print(f"perfbench: imported deconfound from {deconfound.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    import_s = time.perf_counter() - T0

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        dt, inputs = set_up(wl, w, args.seed, work)
        if args.setup_only:
            print(repr(import_s + dt))
            return 0
        setups = [] if args.trace else [import_s + dt] + [
            fresh_setup_s(w.name, args.seed) for _ in range(SETUP_REPS - 1)
        ]
        measure(wl, w, args.seed, args.seconds, bool(args.trace), setups, inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
