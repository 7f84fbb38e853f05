"""ldconv benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload train_bars --seed 1 --seconds 36 --trace 0

Workloads: train_bars, stress_layer, infer_eval (see README.md).
Default seed 1; hold-out seed 7, which every later claim must also pass.

The run starts SETUP_PROBES set-up probes and then the measured process, all
with BLAS pinned to one thread (LDCONV_THREADS=1, whatever the caller set).
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.
The second-to-last line of standard output is a JSON record of the
environment and the sample counts; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits 1 when an output check fails and 2 on bad usage, including a
directory without the ldconv sources.  Per-run files (result, spans, the
training run's outputs) go under .perfbench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_SEED = 1
HOLDOUT_SEED = 7
SETUP_PROBES = 8
# listed here because this process never imports numpy, and so not workloads.py
WORKLOAD_NAMES = ("train_bars", "stress_layer", "infer_eval")
PROBE_TIMEOUT_S = 60
CHECK_TIMEOUT_S = 90          # output checks and reference computation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def _spawn(args: list[str], result: Path, timeout: float) -> tuple[float, dict]:
    """Run one worker; returns (spawn time on CLOCK_MONOTONIC, its result)."""
    if result.exists():
        result.unlink()
    spawned = time.monotonic()
    # the worker's own stdout (the training CLI prints a summary) goes to
    # stderr, so that standard output carries only this program's lines
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args,
                           "--result", str(result)],
                          stdout=sys.stderr, timeout=timeout, check=False)
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(result.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ldconv benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "ldconv" / "__init__.py").is_file():
        print(f"perfbench: no ldconv sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            spawned, probe = _spawn(common + ["--setup-only"],
                                    run_dir / "probe.json", PROBE_TIMEOUT_S)
            setups.append(probe["first_step"] - spawned)
        spawned, res = _spawn(common, run_dir / "result.json",
                              PROBE_TIMEOUT_S + args.seconds + CHECK_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["first_step"] - spawned)

    failed_checks = [c for c in res["checks"] if not c[1]]
    not_checked = [c[0] for c in res["checks"] if c[2].startswith("NOT CHECKED")]
    for name, ok, detail in res["checks"]:
        label = "FAIL" if not ok else "skip" if name in not_checked else "ok  "
        print(f"{label} {args.workload} {name}: {detail}", file=sys.stderr)
    failed = len(failed_checks) + res["step_failures"]
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "img_per_s": {"value": res["img_per_s"], "unit": "img/s"},
            "step_ms_p50": {"value": res["step_ms_p50"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "eval_acc": {"value": res["eval_acc"], "unit": "fraction"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    detail = {"env": res["env"], "workload": args.workload, "seed": args.seed,
              "steps": res["steps"], "rounds": res["rounds"],
              "step_ms_p95": res["step_ms_p95"], "step_ms_mean": res["step_ms_mean"],
              "setup_s_all": setups,
              "failed_checks": [c[0] for c in failed_checks], "not_checked": not_checked}
    (run_dir / "summary.json").write_text(json.dumps({**detail, "metrics": metrics}, indent=1))
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": res["steps"] + len(res["checks"]),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
