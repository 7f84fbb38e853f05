#!/usr/bin/env python3
"""Step-time A/B of the working tree's ldconv against a git revision's, in one process.

Extracts REV's src/ldconv (git archive) and imports it as the package
ldconv_base beside the working tree's ldconv.  Both build the same seeded
fixtures, and single steps run alternately, the order flipped in every pair,
so both sides see the same host load:

    train_step    TinyNet forward, loss, backward and SGD update, 32 images
    eval_forward  TinyNet forward of 256 images
    stress_layer  LdconvLayer (8,16,32,32), n=9, c_out=32, forward + backward

Per step, BENCH_<slug>_steps.json holds every pair's ratio, change seconds
over base seconds (above 1: the change is slower), their median and
quartiles, each side's median ms, and perfbench's environment line.
BLAS runs one thread, pinned as perfbench pins it.

One process cannot compare what the two packages share or what only a fresh
process shows: the glibc heap thresholds and the BLAS thread count, which
each import sets for the whole process; peak RSS; and import time.
scripts/ab_bench.py compares those, one process per run.

    python3 scripts/ab_steps.py --base HEAD~1 --slug slim_post_cache
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402  (before numpy: pins BLAS to one thread, as perfbench runs)
import ldconv  # noqa: E402
import numpy as np  # noqa: E402

from ab_bench import extract, spread  # noqa: E402

SIDES = ("base", "change")
FULL = {"train_batch": 32, "eval_batch": 256, "stress_dims": (8, 16, 32, 32)}
WARMUP = 10    # untimed pairs per step, run before its timed ones
PAIRS = 300    # timed pairs per step


def import_package(pkg_dir: Path, name: str):
    """Import the package in pkg_dir under name, replacing an earlier one of that name."""
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(name, pkg_dir / "__init__.py",
                                                  submodule_search_locations=[str(pkg_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def extract_base(rev: str, dest: Path, name: str = "ldconv_base"):
    """REV's src/ldconv, extracted under dest and imported as name."""
    extract(rev, dest, "src/ldconv")
    return import_package(dest / "src" / "ldconv", name)


def steps(pkg, train_batch: int, eval_batch: int, stress_dims: tuple) -> dict:
    """Step name -> zero-argument callable, on pkg's fixtures for seed 1.

    Offsets are drawn non-zero, as perfbench's are: a fresh net samples on
    lattice points only.
    """
    rng = pkg.Rng(1)

    def seed_offsets(layer, tag):
        layer.offset_w = rng.stream(f"ab/offw/{tag}").uniform(
            -0.1, 0.1, size=layer.offset_w.shape).astype(layer.dtype)
        layer.offset_b = rng.stream(f"ab/offb/{tag}").uniform(
            -0.5, 0.5, size=layer.offset_b.shape).astype(layer.dtype)

    net = pkg.TinyNet.create(rng=rng)
    seed_offsets(net.ld1, "ld1")
    seed_offsets(net.ld2, "ld2")
    data = pkg.synthetic_bars(max(train_batch, eval_batch), rng, stream="ab/images")
    images, labels = data.images[:train_batch], data.labels[:train_batch]
    b_n, c_in, h, w = stress_dims
    layer = pkg.LdconvLayer.create(9, c_in, 32, rng=rng, name="stress")
    seed_offsets(layer, "stress")
    x = pkg.rand_uniform(stress_dims, rng, stream="ab/x")
    up = pkg.rand_uniform((b_n, 32, h, w), rng, lo=-1.0, hi=1.0, stream="ab/up")

    def train_step():
        logits, cache = net.forward(images)
        _, dlogits = pkg.training.softmax_cross_entropy(logits, labels)
        grads = net.backward(cache, dlogits)
        del cache
        params = net.params()
        for name, grad in grads.items():
            params[name] -= np.asarray(0.05 * grad, dtype=net.dtype)

    return {"train_step": train_step,
            "eval_forward": lambda: net.forward(data.images[:eval_batch]),
            "stress_layer": lambda: layer.backward(layer.forward(x)[1], up)}


def compare(sides: dict[str, dict], pairs: int, warmup: int) -> dict:
    """Per step: the pairs' change/base time ratios, their spread, and each
    side's median ms.  sides maps "base" and "change" to steps() dicts."""
    out = {}
    for name in sides["base"]:
        for _ in range(warmup):
            for side in SIDES:
                sides[side][name]()
        secs = {side: [] for side in SIDES}
        for pair in range(pairs):
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                begin = perf_counter()
                sides[side][name]()
                secs[side].append(perf_counter() - begin)
        ratios = [c / b for b, c in zip(secs["base"], secs["change"])]
        out[name] = {"ratio": spread(ratios),
                     **{f"{side}_ms_median": statistics.median(secs[side]) * 1e3
                        for side in SIDES},
                     "ratios": ratios}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--slug", required=True, help="output name: BENCH_<slug>_steps.json")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab_steps_") as tmp:
        base = extract_base(args.base, Path(tmp))
        result = compare({"base": steps(base, **FULL), "change": steps(ldconv, **FULL)},
                         PAIRS, WARMUP)
    report = {"base": args.base, "pairs": PAIRS, "warmup": WARMUP,
              "env": worker.environment(), "steps": result}
    out_path = ROOT / f"BENCH_{args.slug}_steps.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    for name, row in result.items():
        ratio = row["ratio"]
        print(f"{name}: change/base median {ratio['median']:.3f} "
              f"(q1 {ratio['q1']:.3f}, q3 {ratio['q3']:.3f}), "
              f"{row['base_ms_median']:.2f} -> {row['change_ms_median']:.2f} ms")
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
