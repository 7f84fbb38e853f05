"""Command-line front end.

Exit codes: 0 success, 1 quantitative failure (tolerance exceeded, diverged
training), 2 usage or input errors.  No artifact holds the wall-clock time, so
identical seeded invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analysis import ao_csv, average_offset, growth_audit, growth_csv, shape_ao_compare
from .gradcheck import check_layer_gradients, check_sampler_gradients
from .geometry import gen_initial_coords, load_custom_shape
from .layer import POST_MODES, LdconvLayer
from .report import RunReport
from .svgplot import line_chart_svg, shape_scatter_svg
from .tensor import Rng, rand_uniform, read_tensors
from .training import (DivergenceError, TinyNet, TrainConfig, load_idx, save_net,
                       synthetic_bars, train)

# Relative agreement of the paper's three channel-mix layouts, which compute
# one linear map; the layer implements one and the tests compare the others.
REL_TOL_STRATEGY = 1e-5


def _parse_dims(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--dims expects B,C,H,W, got {text!r}")
    dims = tuple(int(p) for p in parts)
    if any(d < 1 for d in dims):
        raise ValueError(f"--dims entries must be >= 1, got {dims}")
    return dims


def _write(path: str | None, content: str) -> str | None:
    if path is None or path == "-":
        sys.stdout.write(content)
        return None
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(content)
    return str(path)


# -- gen-coords ---------------------------------------------------------------


def _cmd_gen_coords(args) -> int:
    if args.shape_file is not None:
        geometry = load_custom_shape(Path(args.shape_file).read_text())
    else:
        geometry = gen_initial_coords(args.n)
    if args.format == "csv":
        lines = ["index,row,col"]
        lines += [f"{k},{r},{c}" for k, (r, c) in enumerate(geometry.coords)]
        _write(args.out, "\n".join(lines) + "\n")
    else:
        if args.out is None:
            raise ValueError("--format svg requires --out")
        _write(args.out, shape_scatter_svg(geometry, title=f"{geometry.n}-point kernel"))
    return 0


# -- check-grad ---------------------------------------------------------------


def _cmd_check_grad(args) -> int:
    dims = _parse_dims(args.dims)
    dtype = np.float64 if args.f64 else np.float32
    if args.eps is not None and not 0 < args.eps < float("inf"):
        raise ValueError(f"--eps must be finite and > 0, got {args.eps}")
    results = check_sampler_gradients(dims=dims, n=args.n, seed=args.seed,
                                      eps=args.eps, dtype=dtype)
    results += check_layer_gradients(dims=dims, n=args.n, seed=args.seed,
                                     eps=args.eps, dtype=dtype, sabotage=args.sabotage)
    worst = 0.0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.group:<22} max_rel_err={res.max_rel_err:.3e} "
              f"tol={res.tol:.1e}")
        worst = max(worst, res.max_rel_err)
    ok = all(res.passed for res in results)
    if args.out:
        report = RunReport(
            command="check-grad",
            config={"n": args.n, "dims": list(dims), "seed": args.seed,
                    "eps": args.eps, "f64": args.f64, "sabotage": args.sabotage},
            metrics={"groups": {res.group: res.max_rel_err for res in results},
                     "worst": worst, "passed": ok},
            artifacts={},
        )
        report.save(args.out)
    return 0 if ok else 1


# -- bench --------------------------------------------------------------------


def _cmd_bench(args) -> int:
    dims = _parse_dims(args.dims)
    c_in = dims[1]
    if args.iters < 1:
        raise ValueError(f"--iters must be >= 1, got {args.iters}")
    if args.warmup < 0:
        raise ValueError(f"--warmup must be >= 0, got {args.warmup}")
    rng = Rng(0)
    layer = LdconvLayer.create(args.n, c_in, args.c_out, stride=args.stride, post=args.post,
                               rng=rng, name="bench")
    layer.offset_w = rng.stream("bench/offw").uniform(
        -0.1, 0.1, size=layer.offset_w.shape).astype(np.float32)
    layer.offset_b = rng.stream("bench/offb").uniform(
        -0.5, 0.5, size=layer.offset_b.shape).astype(np.float32)
    x = rand_uniform(dims, rng, stream="bench/x")
    upstream = rand_uniform(layer.forward(x)[0].dims, rng, lo=-1.0, hi=1.0,
                            stream="bench/upstream")

    for _ in range(args.warmup):
        layer.backward(layer.forward(x)[1], upstream)
    forward_ms, backward_ms = [], []
    faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(args.iters):
        begin = time.perf_counter()
        cache = layer.forward(x)[1]
        middle = time.perf_counter()
        layer.backward(cache, upstream)
        end = time.perf_counter()
        del cache   # else it lives through the next forward
        forward_ms.append((middle - begin) * 1e3)
        backward_ms.append((end - middle) * 1e3)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    metrics = {"minor_faults_per_iter": (usage.ru_minflt - faults_before) / args.iters,
               "peak_rss_mb": usage.ru_maxrss / 1024.0}    # Linux counts KiB
    p90_rank = min(args.iters - 1, max(0, -(-9 * args.iters // 10) - 1))
    for prefix, times in (("", forward_ms), ("backward_", backward_ms)):
        times.sort()
        metrics[prefix + "median_ms"] = statistics.median(times)
        metrics[prefix + "p90_ms"] = times[p90_rank]
    print(f"forward  median={metrics['median_ms']:8.3f} ms  p90={metrics['p90_ms']:8.3f} ms")
    print(f"backward median={metrics['backward_median_ms']:8.3f} ms  "
          f"p90={metrics['backward_p90_ms']:8.3f} ms")
    print(f"minor page faults per forward+backward={metrics['minor_faults_per_iter']:.1f}")
    print(f"peak RSS={metrics['peak_rss_mb']:.1f} MB")
    if args.out:
        RunReport(
            command="bench",
            config={"n": args.n, "c_in": c_in, "c_out": args.c_out, "stride": args.stride,
                    "post": args.post, "dims": list(dims), "iters": args.iters,
                    "warmup": args.warmup},
            metrics=metrics, artifacts={},
        ).save(args.out)
    return 0


# -- train ---------------------------------------------------------------------


def _cmd_train(args) -> int:
    raw = json.loads(Path(args.config).read_text())
    config = TrainConfig.from_dict(raw)
    rng = Rng(config.seed)
    if config.data_dir:
        root = Path(config.data_dir)
        data = load_idx(root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte")
        eval_data = None
        if (root / "t10k-images-idx3-ubyte").exists():
            eval_data = load_idx(root / "t10k-images-idx3-ubyte",
                                 root / "t10k-labels-idx1-ubyte")
            if config.eval_subset < len(eval_data):
                eval_data = eval_data.take(config.eval_subset)
    elif args.synthetic:
        data = synthetic_bars(config.subset, rng, stream="synthetic-train")
        eval_data = synthetic_bars(config.eval_subset, rng, stream="synthetic-eval")
    else:
        raise ValueError("config has no data_dir; pass --synthetic to use "
                         "the generated bars dataset")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    net = TinyNet.create(n1=config.n1, n2=config.n2, post=config.post, rng=rng)
    result = train(net, data, config, eval_dataset=eval_data)
    ckpt = out_dir / "checkpoint.ldt"
    save_net(net, ckpt, config)

    ao_summaries = {}
    # artifact paths are relative to the report's directory so a rerun into a
    # different directory serialises to identical bytes
    artifacts = {"checkpoint": ckpt.name, "checkpoint_sidecar": ckpt.name + ".json"}
    for name, field in result.ao_batch.items():
        rep = average_offset(field)
        ao_summaries[name] = rep.summary()
        csv_path = out_dir / f"ao_{name}.csv"
        csv_path.write_text(ao_csv(rep))
        artifacts[f"ao_{name}"] = csv_path.name

    report = RunReport(
        command="train", config=asdict(config),
        metrics=result.metrics(ao_summaries), artifacts=artifacts,
    )
    report_path = report.save(out_dir / "report.json")
    print(f"epochs={config.epochs} final_acc={result.final_acc:.4f} "
          f"train_acc={result.final_train_acc:.4f} params={result.param_count} "
          f"report={report_path}")
    return 0


# -- analyze-ao -----------------------------------------------------------------


def _cmd_analyze_ao(args) -> int:
    probe_records = read_tensors(args.probe)
    if not probe_records:
        raise ValueError(f"{args.probe}: empty probe container")
    probe = next(iter(probe_records.values()))
    reports = shape_ao_compare(args.checkpoint, probe)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    series = []
    artifacts = {}
    summaries = {}
    for idx, (path, rep, geometry) in enumerate(reports):
        csv_path = out_dir / f"ao_{idx}.csv"
        csv_path.write_text(ao_csv(rep))
        artifacts[f"ao_{idx}"] = csv_path.name
        summaries[path] = rep.summary()
        flat = rep.position_mean.reshape(-1)
        series.append((Path(path).name, list(range(flat.size)),
                       [float(v) for v in flat]))
        svg_path = out_dir / f"shape_{idx}.svg"
        svg_path.write_text(shape_scatter_svg(
            geometry, title=f"kernel shape: {Path(path).name}"))
        artifacts[f"shape_{idx}"] = svg_path.name
    chart = line_chart_svg(series, title="mean |offset| per output position",
                           x_label="flattened position", y_label="AO")
    chart_path = out_dir / "ao_compare.svg"
    chart_path.write_text(chart)
    artifacts["chart"] = chart_path.name

    RunReport(command="analyze-ao",
              config={"checkpoints": list(args.checkpoint), "probe": args.probe},
              metrics={"ao": summaries},
              artifacts=artifacts).save(out_dir / "report.json")
    for path, rep, _ in reports:
        print(f"{path}: mean_ao={rep.mean:.5f} std={rep.std:.5f}")
    return 0


# -- growth ----------------------------------------------------------------------


def _cmd_growth(args) -> int:
    if args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
    rows = growth_audit(args.c_in, args.c_out, range(1, args.n_max + 1))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "growth.csv"
    csv_path.write_text(growth_csv(rows))
    ns = [row.n for row in rows]
    chart = line_chart_svg(
        [("deformable params (linear)", ns, [row.params for row in rows]),
         ("k x k conv params (quadratic)", ns, [row.std_params for row in rows])],
        title=f"parameter growth, c_in={args.c_in} c_out={args.c_out}",
        x_label="kernel size n", y_label="parameters")
    svg_path = out_dir / "growth.svg"
    svg_path.write_text(chart)
    RunReport(command="growth",
              config={"c_in": args.c_in, "c_out": args.c_out, "n_max": args.n_max},
              metrics={"rows": [asdict(row) for row in rows]},
              artifacts={"csv": csv_path.name, "svg": svg_path.name},
              ).save(out_dir / "report.json")
    print(csv_path)
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldconv",
        description="deformable convolution tools: kernel shapes, gradient "
                    "checks, benchmarks, training, offset analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-coords", help="emit kernel coordinates as CSV or SVG")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="kernel size for the default layout")
    group.add_argument("--shape-file", help="custom shape file (row col per line)")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout for csv)")
    p.set_defaults(func=_cmd_gen_coords)

    p = sub.add_parser("check-grad", help="finite-difference gradient verification")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--dims", default="1,2,5,5", help="input dims B,C,H,W")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=None,
                   help="FD step (default: 1e-3 sampler / 1e-4 layer with "
                        "--f64, else 1e-2)")
    p.add_argument("--f64", action="store_true", help="check in 64-bit precision")
    p.add_argument("--sabotage", action="store_true",
                   help="corrupt the analytic gradient (negative control)")
    p.add_argument("--out", default=None, help="write a JSON report here")
    p.set_defaults(func=_cmd_check_grad)

    p = sub.add_parser("bench", help="time the layer forward and backward")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--c-out", type=int, default=16)
    p.add_argument("--dims", default="2,8,16,16", help="input dims B,C,H,W; C is the layer's c_in")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--post", choices=POST_MODES, default="none")
    p.add_argument("--iters", type=int, default=30)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("train", help="train the two-layer net")
    p.add_argument("config", help="JSON config path")
    p.add_argument("--synthetic", action="store_true",
                   help="use the generated bars dataset (no data_dir needed)")
    p.add_argument("--out", default="runs/train", help="output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("analyze-ao", help="compare offset magnitudes across checkpoints")
    p.add_argument("--checkpoint", action="append", required=True,
                   help="network checkpoint (repeatable)")
    p.add_argument("--probe", required=True, help="tensor container with a probe batch")
    p.add_argument("--out", default="runs/ao", help="output directory")
    p.set_defaults(func=_cmd_analyze_ao)

    p = sub.add_parser("growth", help="parameter/FLOP growth table and chart")
    p.add_argument("--c-in", type=int, required=True)
    p.add_argument("--c-out", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", default="runs/growth", help="output directory")
    p.set_defaults(func=_cmd_growth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:          # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:   # covers shape/format/input errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
