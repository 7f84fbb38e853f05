#!/usr/bin/env python3
"""Does the initial kernel layout matter once offsets are learned?

Trains one net per requested shape file (plus the generated layout as the
baseline), all otherwise identical, then measures the average offset of the
final deformable layer on a shared probe batch.  Similar AO magnitudes across
rows suggest the learned offsets, not the starting layout, carry the
adaptation.

    python3 scripts/compare_shape_ao.py --shape shapes/plus_5.txt --shape shapes/x_5.txt
"""

import argparse
import sys
from pathlib import Path

try:
    import ldconv  # noqa: F401
except ImportError:  # running from a checkout without an editable install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ldconv.analysis import shape_ao_compare
from ldconv.geometry import gen_initial_coords, load_custom_shape
from ldconv.tensor import Rng, Tensor4
from ldconv.training import TinyNet, TrainConfig, save_net, synthetic_bars, train


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", action="append", default=[],
                    help="shape file; repeat for several (all must share n)")
    ap.add_argument("--no-baseline", action="store_true",
                    help="skip the generated-layout baseline run")
    ap.add_argument("--epochs", type=int, default=4)
    ap.add_argument("--subset", type=int, default=512)
    ap.add_argument("--probe-size", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="runs/shape_ao",
                    help="directory for the per-shape checkpoints")
    args = ap.parse_args(argv)

    variants = [(Path(p).stem, load_custom_shape(Path(p).read_text()))
                for p in args.shape]
    if not variants and args.no_baseline:
        ap.error("nothing to run: no --shape and the baseline is disabled")
    n = variants[0][1].n if variants else 5
    if any(g.n != n for _, g in variants):
        ap.error("all shape files must hold the same number of points")
    if not args.no_baseline:
        variants.insert(0, ("generated", gen_initial_coords(n)))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = Rng(args.seed)
    data = synthetic_bars(args.subset, rng, stream="synthetic-train")
    probe = Tensor4(synthetic_bars(args.probe_size, rng, stream="probe").images)

    paths = []
    for name, geometry in variants:
        cfg = TrainConfig(n1=n, n2=n, epochs=args.epochs, seed=args.seed,
                          subset=args.subset)
        net = TinyNet.create(n1=n, n2=n, post=cfg.post, rng=Rng(cfg.seed),
                             geometry=geometry)
        result = train(net, data, cfg)
        path = out_dir / f"{name}.ldt"
        save_net(net, path, config=cfg)
        paths.append(path)
        print(f"trained {name:<12} final train acc {result.final_train_acc:.3f}")

    print(f"\nAO of the last deformable layer on a shared {args.probe_size}-image probe:")
    print(f"{'variant':<12} {'ao mean':>8} {'ao std':>8}")
    for path, report, _ in shape_ao_compare(paths, probe):
        print(f"{Path(path).stem:<12} {report.mean:>8.3f} {report.std:>8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
