"""Alternating parent/change perfbench pairs, summarized into a BENCH_<n>.json record.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seed S --out BENCH_<n>.json

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (for
example `git archive` of the parent commit, and the working tree). Pair
i runs `python3 perfbench/run.py --workload W --seed S --trace 0` once
in each checkout, for perfbench's own default run length, the parent
first when i is odd and the change first when i is even, and keeps each
run's final JSON result line. Then N more alternating pairs time one fresh `run.py --setup-only`
process per side (imports, input set-up and one warm-up bundle, the
quantity behind setup_s).

The record is merged into --out, created when missing: the workload's
entry is replaced, every other entry is kept. Runs on seed 0, where
perfbench also checks its reference, go under "seed0"; runs on any other
seed go under "workloads", and that seed is the record's "pair_seed".
Each entry holds the summed correctness gate of each side, every run's
result line under "runs", the --setup-only timings under "setup_only",
and, per end-to-end metric of BENCHMARK.json and for the setup-only
timings, each side's min, quartiles, median and max, the change's median
over the parent's, the parent's interquartile range and the number of
pairs the change won (strictly better in the metric's direction).

Runs are sequential; nothing else should load the machine meanwhile.
Needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 900
COMMAND = "python3 perfbench/run.py --workload W --seed S --trace 0"


def perfbench(tree: Path, *args: str) -> list[str]:
    """Run perfbench/run.py in a checkout; its stdout lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tree,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: run.py {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc.stdout.splitlines()


def alternate(pairs: int, run) -> list[dict]:
    """`pairs` alternating pairs of run(side), parent first in odd pairs."""
    out = []
    for pair in range(1, pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        record = {"pair": pair, "first": order[0]}
        for side in order:
            record[side] = run(side)
            print(f"pair {pair} {side}: {json.dumps(record[side])[:160]}", file=sys.stderr, flush=True)
        out.append(record)
    return out


def spread(values: list[float]) -> dict:
    """min, quartiles, median and max (inclusive quartiles, as numpy's default percentile)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"min": min(values), "q1": q1, "median": median, "q3": q3, "max": max(values)}


def summary(pairs: list[dict], value, unit: str, lower_is_better: bool) -> dict:
    """The summary of one metric read by value(side record) from each pair."""
    parent = [value(p["parent"]) for p in pairs]
    change = [value(p["change"]) for p in pairs]
    wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    parent_spread, change_spread = spread(parent), spread(change)
    return {
        "unit": unit,
        "parent": parent_spread,
        "change": change_spread,
        "change_over_parent": change_spread["median"] / parent_spread["median"],
        "change_wins": wins,
        "pairs": len(pairs),
        "parent_iqr": parent_spread["q3"] - parent_spread["q1"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent-commit", default=None, help="recorded as parent_commit when the file has none")
    parser.add_argument("--what", default=None, help="recorded as what when the file has none")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent_dir, "change": args.change_dir}
    run_args = ["--workload", args.workload, "--seed", str(args.seed)]
    env = {}

    def measured(side: str) -> dict:
        lines = perfbench(trees[side], *run_args, "--trace", "0")
        env.setdefault(side, json.loads(next(line for line in lines if line.startswith("env "))[4:]))
        return json.loads(lines[-1])

    def setup_seconds(side: str) -> float:
        return float(perfbench(trees[side], *run_args, "--setup-only")[-1].split()[-1])

    runs = alternate(args.pairs, measured)
    setups = alternate(args.pairs, setup_seconds)

    bench = json.loads((args.change_dir / "BENCHMARK.json").read_text())
    entry = {
        "pairs": args.pairs,
        "gate": {
            side: {
                "correct": all(p[side]["correct"] for p in runs),
                "failed": sum(p[side]["failed"] for p in runs),
                "attempted": sum(p[side]["attempted"] for p in runs),
            }
            for side in trees
        },
        "summary": {
            metric["name"]: summary(
                runs,
                lambda r, name=metric["name"]: r["metrics"][name]["value"],
                metric["unit"],
                metric["better"] == "lower",
            )
            for metric in bench["end_to_end"]
            if all(metric["name"] in p[side]["metrics"] for p in runs for side in trees)
        },
        "setup_only": {
            "summary": summary(setups, lambda seconds: seconds, "s", True),
            "runs": setups,
        },
        "runs": runs,
    }

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault(
        "what",
        args.what
        or "perfbench end-to-end runs of the parent commit and of a change, alternating parent/change pairs "
        "(odd pairs parent first), plus as many alternating fresh --setup-only timings per side; each run's "
        "final result line is kept under 'runs'. Written by tools/bench_pairs.py.",
    )
    record.setdefault("parent_commit", args.parent_commit)
    record["command"] = COMMAND
    if args.seed != 0:
        record["pair_seed"] = args.seed
    record["env"] = {k: v for k, v in env["change"].items() if k != "seed"}
    record.setdefault("workloads", {})
    record.setdefault("seed0", {})
    record["seed0" if args.seed == 0 else "workloads"][args.workload] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
