"""One benchmark process: set-up, timed rounds, output checks, result file.

run.py starts this once per set-up probe and once for the measured run.
It can also be run by hand from the repository root:

    python3 perfbench/worker.py --workload stress_layer --seed 1 --seconds 5 \
        --trace 0 --result /tmp/result.json

LDCONV_THREADS and the BLAS thread variables are set to 1, whatever the
caller exported, before numpy is first imported, so OpenBLAS runs one thread.
The run refuses to start (exit code 3) unless the library itself reports
exactly one thread.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# ldconv only fills in the BLAS variables the caller left unset, so all are set
PINNED = ("LDCONV_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
          "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update(dict.fromkeys(PINNED, "1"))
sys.path.insert(0, str(ROOT / "src"))

import ldconv  # noqa: E402  (imported before numpy: it pins the BLAS pools)
import numpy as np  # noqa: E402

import references  # noqa: E402
from spans import Tracer, unit  # noqa: E402
from workloads import WORKLOADS, Clock, Patches, SetupDone  # noqa: E402

REFUSED = 3


def _blas_library():
    """The loaded OpenBLAS: (ctypes handle, symbol prefix) or (None, None)."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                return lib, (prefix, suffix)
    return None, None


def environment() -> dict:
    """What the numbers depend on, read from the libraries themselves."""
    lib, names = _blas_library()
    threads = blas_config = None
    if lib is not None:
        prefix, suffix = names
        get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        threads = int(get_threads())
        get_config = getattr(lib, f"{prefix}_get_config{suffix}")
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        blas_config = get_config().decode()
    cpu = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"blas_threads": threads, "blas": blas_config, "numpy": np.__version__,
            "python": platform.python_version(), "ldconv": ldconv.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "LDCONV_THREADS": os.environ.get("LDCONV_THREADS")}


def refusal(env: dict) -> str | None:
    """Why the run must not start, or None: BLAS must report one thread."""
    threads, nproc = env["blas_threads"], env["nproc"]
    if threads is None:
        return "cannot read the BLAS thread count from the loaded library"
    if threads > nproc:
        return f"BLAS uses {threads} threads on {nproc} CPUs"
    if threads != 1:
        return f"BLAS uses {threads} threads, not 1"
    return None


def blas_probe_ms(reps: int = 30) -> float:
    """Median ms of the ld2 offset-conv contraction, (32,8,14,14) stride 2.

    Taken after the timed region.  It tells apart a process in the slow mode
    where small BLAS calls cost about 8 ms instead of about 0.8 ms.
    """
    gen = np.random.default_rng(0)
    xpp = gen.random((32, 8, 16, 16), dtype=np.float32)
    weights = gen.random((10, 8, 3, 3), dtype=np.float32)
    windows = np.lib.stride_tricks.sliding_window_view(xpp, (3, 3), axis=(2, 3))[:, :, ::2, ::2]
    times = []
    for _ in range(reps):
        begin = perf_counter()
        np.einsum("bcijkl,ockl->boij", windows, weights, optimize=True)
        times.append(perf_counter() - begin)
    return 1e3 * statistics.median(times)


def measure(workload, tracer, patches, seconds: float) -> list[tuple[int, float]]:
    """Set up, then run whole rounds while the next one is expected to end
    within seconds; returns (images, wall seconds) per round.  Patches are
    undone on exit."""
    try:
        if tracer is not None:
            tracer.install(patches)
        workload.setup(patches)
        return _rounds(workload, tracer, seconds)
    finally:
        patches.restore()


def _rounds(workload, tracer, seconds: float) -> list[tuple[int, float]]:
    begin = perf_counter()
    rounds = []
    while True:
        images = workload.images
        start = perf_counter()
        if tracer is None:
            workload.run_round()
        else:
            tracer.round(workload.run_round)
        now = perf_counter()
        rounds.append((workload.images - images, now - start))
        if now - begin + (now - start) > seconds:
            return rounds


def img_per_s(rounds: list[tuple[int, float]]) -> float:
    """Median over rounds of the round's images / its wall time."""
    return statistics.median(images / wall for images, wall in rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first timed step (set-up probe)")
    parser.add_argument("--result", required=True, help="write the result JSON here")
    args = parser.parse_args(argv)
    result_path = Path(args.result)

    env = environment()
    reason = refusal(env)
    if reason is not None:
        print(f"refusing to run: {reason}", file=sys.stderr)
        return REFUSED

    tracer = Tracer() if args.trace else None
    clock = Clock(tracer, setup_only=args.setup_only)
    work_dir = result_path.parent / "work"
    workload = WORKLOADS[args.workload](args.seed, clock, work_dir,
                                        references.load(args.workload, args.seed))
    try:
        rounds = measure(workload, tracer, Patches(), args.seconds)
    except SetupDone:
        result_path.write_text(json.dumps({"first_step": clock.first_step}))
        return 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workload.checks()
    steps = clock.steps
    env["blas_probe_ms"] = blas_probe_ms()
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "first_step": clock.first_step, "rounds": len(rounds), "steps": len(steps),
        "img_per_s": img_per_s(rounds),
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_p95": 1e3 * statistics.quantiles(steps, n=20, method="inclusive")[-1],
        "step_ms_mean": 1e3 * statistics.fmean(steps),
        "peak_rss_mb": peak_rss_mb, "eval_acc": workload.eval_acc,
        "step_failures": workload.step_failures(),
        "checks": [[c.name, c.ok, c.detail] for c in checks],
    }
    if tracer is not None:
        values = tracer.metrics(steps, len(rounds), img_per_s(rounds))
        result["per_layer"] = {name: {"value": value, "unit": unit(name)}
                               for name, value in values.items()}
        tracer.write(result_path.parent / "spans.jsonl.gz")
    result_path.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
