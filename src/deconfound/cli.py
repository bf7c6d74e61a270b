"""Command-line interface: simulate, fit, select-k, benchmark, and cv.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Diagnostics go to stderr; results go to the flagged output files or to
stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, bench, estimators, io, spectral
from .errors import DataError, NumericalError
from .model import METHODS, SimulationConfig
from .simulate import generate

#: (m, n) per benchmark setting.
BENCHMARK_SETTINGS = {1: (25, 1000), 2: (500, 100)}
#: (m, n) per setting for the rank-selection experiment.
SELECT_K_SETTINGS = {1: (25, 1000), 2: (500, 1000)}

DEFAULT_ETA_SWEEP = (0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3)
DEFAULT_ALPHA_SWEEP = (0.0, 3.0, 6.0, 9.0, 12.0, 15.0)
DEFAULT_SIGMA_W_SWEEP = (0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5)

CV_METHODS = tuple(m for m in METHODS if m != "oracle")


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common_data_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--x", required=True, help="CSV of covariates, one sample per row")
    sub.add_argument("--y", required=True, help="CSV of responses, one sample per row")
    sub.add_argument("--header", action="store_true", help="skip one header line in the CSVs")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="deconfound", description=__doc__)
    version = f"deconfound {__version__}"
    parser.add_argument("--version", action="version", version=version)
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", parents=[], help="write a simulated dataset", prog="deconfound simulate")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--m", type=int, required=True)
    sim.add_argument("--p", type=int, default=2)
    sim.add_argument("--k", type=int, default=3)
    sim.add_argument("--eta", type=float, default=0.5, help="observed-hidden dependence level")
    sim.add_argument("--alpha", type=float, default=0.0, help="heteroscedasticity exponent (0 with --noise homo)")
    sim.add_argument("--sigma-w", type=float, default=1.0)
    sim.add_argument("--noise", choices=("homo", "hetero"), default="homo")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--second-param", choices=("variance", "stddev"), default="variance",
        help="how the 0.1 in the Normal(0.5, 0.1) parameter draws is read",
    )
    sim.add_argument("--out", required=True, help="output directory for X.csv, Y.csv, truth.json")

    fit = commands.add_parser("fit", help="estimate the direct-effect matrix from CSV data", prog="deconfound fit")
    _add_common_data_flags(fit)
    fit.add_argument("--method", required=True, choices=CV_METHODS)
    fit.add_argument("--k", default="auto", help="hidden dimension: an integer or 'auto'")
    fit.add_argument("--k-star", type=int, default=None, help="upper bound for --k auto")
    fit.add_argument("--t", type=int, default=estimators.DEFAULT_N_ITER, help="HeteroPCA iterations")
    fit.add_argument("--out", default=None, help="output CSV for the p x m estimate (stdout if omitted)")

    sel = commands.add_parser("select-k", help="rank-selection experiment over noise scales", prog="deconfound select-k")
    sel.add_argument("--sigma-w", default=",".join(str(v) for v in DEFAULT_SIGMA_W_SWEEP), help="comma-separated noise scales")
    sel.add_argument("--k-star", type=int, default=None, help="rank search upper bound")
    sel.add_argument("--setting", type=int, choices=(1, 2), default=1, help="1: m=25,n=1000; 2: m=500,n=1000")
    sel.add_argument("--p", type=int, default=2)
    sel.add_argument("--k", type=int, default=3, help="true hidden dimension of the simulation")
    sel.add_argument("--eta", type=float, default=0.5)
    sel.add_argument("--replicates", type=int, default=100)
    sel.add_argument("--seed", type=int, default=0)
    sel.add_argument("--workers", type=int, default=1)
    sel.add_argument("--out", required=True, help="output directory")

    ben = commands.add_parser("benchmark", help="replicate experiment grid", prog="deconfound benchmark")
    ben.add_argument("--setting", type=int, choices=(1, 2), default=1, help="1: m=25,n=1000; 2: m=500,n=100")
    ben.add_argument("--noise", choices=("homo", "hetero"), default="homo")
    ben.add_argument("--sweep", default=None, help="name=v1,v2,... over eta_dep, alpha, or sigma_w")
    ben.add_argument("--replicates", type=int, default=100)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--methods", default=",".join(METHODS), help="comma-separated method tags")
    ben.add_argument("--k", default="3", help="hidden dimension passed to the fits: integer or 'auto'")
    ben.add_argument("--k-star", type=int, default=None, help="upper bound for --k auto")
    ben.add_argument("--t", type=int, default=estimators.DEFAULT_N_ITER)
    ben.add_argument("--workers", type=int, default=1)
    ben.add_argument("--out", required=True, help="output directory")

    cv = commands.add_parser("cv", help="k-fold prediction error on CSV data", prog="deconfound cv")
    _add_common_data_flags(cv)
    cv.add_argument("--folds", type=int, default=10)
    cv.add_argument("--methods", default=",".join(CV_METHODS))
    cv.add_argument("--k", default="auto", help="hidden dimension: an integer or 'auto'")
    cv.add_argument("--k-star", type=int, default=None)
    cv.add_argument("--t", type=int, default=estimators.DEFAULT_N_ITER)
    cv.add_argument("--seed", type=int, default=0)
    cv.add_argument("--out", default=None, help="output JSON (stdout if omitted)")

    for sub in (sim, fit, sel, ben, cv):
        sub.add_argument("--version", action="version", version=version)

    return parser


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as err:
        raise DataError(f"could not parse {what}: {err}") from err
    if not values:
        raise DataError(f"{what} must be a nonempty comma-separated list")
    return values


def _parse_methods(text: str) -> tuple[str, ...]:
    """The comma-separated method tags; bench checks them."""
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _noise_kind(flag: str) -> str:
    return "homoscedastic" if flag == "homo" else "heteroscedastic"


def _cmd_simulate(args) -> int:
    config = SimulationConfig(
        n=args.n,
        m=args.m,
        p=args.p,
        k=args.k,
        eta_dep=args.eta,
        alpha=args.alpha,
        sigma_w=args.sigma_w,
        noise=_noise_kind(args.noise),
        seed=args.seed,
        second_param=args.second_param,
    )
    dataset, truth = generate(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.save_dataset(dataset, out / "X.csv", out / "Y.csv")
    io.write_json(out / "truth.json", io.ground_truth_to_obj(truth))
    print(f"wrote {out / 'X.csv'}, {out / 'Y.csv'}, {out / 'truth.json'}", file=sys.stderr)
    return 0


def _parse_k(text: str) -> int | None:
    """The --k flag: None for 'auto', otherwise a positive integer."""
    if text == "auto":
        return None
    try:
        k = int(text)
    except ValueError as err:
        raise DataError(f"--k must be an integer or 'auto', got {text!r}") from err
    if k < 1:
        raise DataError(f"--k must be a positive integer, got {k}")
    return k


def _cmd_fit(args) -> int:
    dataset = io.load_dataset(args.x, args.y, header=args.header)
    k = None if args.method == "ols" else _parse_k(args.k)
    [(est, k_used)] = bench._run_dataset(dataset, [args.method], k=k, k_star=args.k_star, n_iter=args.t)
    if k is None and k_used is not None:
        print(f"selected k = {k_used}", file=sys.stderr)
    if isinstance(est, Exception):
        raise est
    if args.out is None:
        np.savetxt(sys.stdout, est.theta, delimiter=",", fmt=io.FLOAT_FMT)
    else:
        io.save_matrix_csv(args.out, est.theta)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_select_k(args) -> int:
    m, n = SELECT_K_SETTINGS[args.setting]
    # alpha = 0 through the heteroscedastic machinery gives the uniform
    # tau^2 = p+1 noise profile this experiment fixes.
    base = SimulationConfig(
        n=n, m=m, p=args.p, k=args.k, eta_dep=args.eta, alpha=0.0, sigma_w=1.0,
        noise="heteroscedastic", seed=args.seed,
    )
    values = _parse_float_list(args.sigma_w, "--sigma-w")
    k_star = spectral.default_k_star(n, m) if args.k_star is None else args.k_star
    report = bench.run_k_selection(base, values, k_star, args.replicates, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_json(out / "k_selection.json", bench.k_selection_to_obj(report))
    print(f"wrote {out / 'k_selection.json'}", file=sys.stderr)
    return 0


def _cmd_benchmark(args) -> int:
    m, n = BENCHMARK_SETTINGS[args.setting]
    noise = _noise_kind(args.noise)
    if args.sweep is None:
        if noise == "homoscedastic":
            sweep_param, sweep_values = "eta_dep", list(DEFAULT_ETA_SWEEP)
        else:
            sweep_param, sweep_values = "alpha", list(DEFAULT_ALPHA_SWEEP)
    else:
        if "=" not in args.sweep:
            raise DataError("--sweep must look like name=v1,v2,...")
        name, _, tail = args.sweep.partition("=")
        sweep_param = name.strip()
        sweep_values = _parse_float_list(tail, "--sweep")
    k = _parse_k(args.k)
    base = SimulationConfig(
        n=n, m=m, p=2, k=k or 3, eta_dep=0.5, alpha=0.0, sigma_w=1.0, noise=noise, seed=args.seed,
    )
    grid = bench.ExperimentGrid(
        base=base,
        sweep_param=sweep_param,
        sweep_values=tuple(sweep_values),
        replicates=args.replicates,
        methods=_parse_methods(args.methods),
        k_policy="known" if k is not None else "selected",
        k_star=args.k_star,
        n_iter=args.t,
    )
    report = bench.run_grid(grid, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bench.write_report_csv(report, out / "records.csv", out / "aggregate.csv")
    io.write_json(out / "report.json", bench.report_to_obj(report))
    print(
        f"wrote {out / 'records.csv'}, {out / 'aggregate.csv'}, {out / 'report.json'} "
        f"({report.failure_count()} failed cells)",
        file=sys.stderr,
    )
    return 0


def _cmd_cv(args) -> int:
    dataset = io.load_dataset(args.x, args.y, header=args.header)
    report = bench.cross_validate(
        dataset,
        folds=args.folds,
        methods=list(_parse_methods(args.methods)),
        k=_parse_k(args.k),
        k_star=args.k_star,
        n_iter=args.t,
        seed=args.seed,
    )
    obj = bench.cv_report_to_obj(report)
    if args.out is None:
        import json

        print(json.dumps(obj, indent=2))
    else:
        io.write_json(args.out, obj)
    print(f"wrote {args.out or 'stdout'} ({report.failure_count()} failed folds)", file=sys.stderr)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "select-k": _cmd_select_k,
    "benchmark": _cmd_benchmark,
    "cv": _cmd_cv,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except DataError as err:
        print(f"deconfound: data error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"deconfound: i/o error: {err}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as err:
        print(f"deconfound: numerical failure: {err}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
