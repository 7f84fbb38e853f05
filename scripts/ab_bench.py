#!/usr/bin/env python3
"""A/B benchmark of the working tree against a git revision, one command.

Extracts REV into a temporary directory (git archive | tar -x) and runs
`python3 perfbench/run.py --trace 0` alternately there and in the working
tree, PAIRS pairs per workload and seed; odd pairs run the working tree
first, and each pair goes once round every workload and seed.  After every
run it rewrites BENCH_<slug>.json: every run's metrics and exit code, and
per workload and seed each side's median and quartiles and, per metric, the
pairs the change won and lost (ties count for neither; the better direction
comes from BENCHMARK.json).

    python3 scripts/ab_bench.py --base HEAD --slug sampler_blocks \\
        --workload stress_layer --workload infer_eval --seed 1 --seed 7 --pairs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    if not values:
        return {"n": 0, "median": None, "q1": None, "q3": None}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per "<workload> seed <seed>" and metric: each side's spread and the
    pair wins.

    runs are records {"workload", "seed", "pair", "side", "exit", "metrics"},
    where metrics maps a name to its value ({} for a run that wrote no
    result); better maps a metric name to "lower" or "higher".  A pair counts
    for a metric only when both its runs report the metric.
    """
    out = {}
    for workload, seed in dict.fromkeys((run["workload"], run["seed"]) for run in runs):
        mine = [run for run in runs if (run["workload"], run["seed"]) == (workload, seed)]
        by_pair: dict[int, dict[str, dict]] = {}
        for run in mine:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
        metrics = {}
        for name, direction in better.items():
            sides = {side: spread([run["metrics"][name] for run in mine
                                   if run["side"] == side and name in run["metrics"]])
                     for side in SIDES}
            wins = {"change": 0, "base": 0, "ties": 0, "pairs": 0}
            for pair in by_pair.values():
                if not all(name in pair.get(side, {}) for side in SIDES):
                    continue
                base, change = pair["base"][name], pair["change"][name]
                wins["pairs"] += 1
                if base == change:
                    wins["ties"] += 1
                elif (change < base) == (direction == "lower"):
                    wins["change"] += 1
                else:
                    wins["base"] += 1
            metrics[name] = {**sides, "better": direction, "wins": wins}
        out[f"{workload} seed {seed}"] = {
            "exit_codes": {side: [run["exit"] for run in mine if run["side"] == side]
                           for side in SIDES},
            "metrics": metrics,
        }
    return out


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree: exit code, metric values, env line and the
    names of failed checks; a run that exits non-zero or prints no result
    keeps its stderr tail too."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    record = {"exit": proc.returncode, "metrics": {}, "env": None, "correct": None,
              "failed_checks": None}
    if len(lines) >= 2:
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        record["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
        record["correct"] = result["correct"]
        record["failed_checks"] = detail["failed_checks"]
        env = detail["env"]
        record["env"] = {key: env.get(key) for key in ("blas_threads", "blas", "numpy")}
    if proc.returncode != 0 or len(lines) < 2:
        # 20 lines: perfbench's per-check lines and the error that ended the run
        record["stderr_tail"] = proc.stderr.strip().splitlines()[-20:]
    return record


def write_report(path: Path, args, runs: list[dict], better: dict[str, str]) -> None:
    envs = [run["env"] for run in runs if run["env"]]
    report = {
        "base": args.base,
        "command": ["python3", "perfbench/run.py", "--seconds", str(args.seconds),
                    "--trace", "0"],
        "pairs": args.pairs,
        "env": envs[0] if envs else None,
        "summary": summarize(runs, better),
        "runs": runs,
    }
    path.write_text(json.dumps(report, indent=1) + "\n")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--slug", required=True, help="output name: BENCH_<slug>.json")
    ap.add_argument("--workload", action="append", required=True,
                    help="perfbench workload; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, action="append", required=True,
                    help="workload seed; repeat for several")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path, default=None,
                    help="output path (default: BENCH_<slug>.json in the repository root)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    better = {metric["name"]: metric["better"] for metric in bench["end_to_end"]}
    out_path = args.out or ROOT / f"BENCH_{args.slug}.json"

    runs = []
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"base": Path(tmp), "change": ROOT}
        for pair in range(args.pairs):
            for workload in args.workload:
                for seed in args.seed:
                    for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                        record = run_once(trees[side], workload, seed, args.seconds)
                        runs.append({"workload": workload, "seed": seed, "pair": pair,
                                     "side": side, **record})
                        print(f"{workload} seed {seed} pair {pair} {side}: exit "
                              f"{record['exit']} {record['metrics']}", file=sys.stderr)
                        write_report(out_path, args, runs, better)
    print(out_path)
    return 0 if all(run["exit"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
