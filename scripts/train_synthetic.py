#!/usr/bin/env python3
"""Kernel-size sweep on the synthetic bars task.

Trains one two-layer deformable net per requested kernel size and prints a
table of parameter count, held-out accuracy, and the average-offset (AO) of
both layers on the last training batch.  The point of the exercise: accuracy
should saturate quickly with n while parameters stay linear in it.

    python3 scripts/train_synthetic.py --n-values 1,3,5,9 --epochs 6
"""

import argparse
import sys
import time
from pathlib import Path

try:
    import ldconv  # noqa: F401
except ImportError:  # running from a checkout without an editable install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ldconv.analysis import average_offset
from ldconv.tensor import Rng
from ldconv.training import TinyNet, TrainConfig, save_net, synthetic_bars, train


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-values", default="1,3,5,9",
                    help="comma-separated kernel sizes to sweep")
    ap.add_argument("--epochs", type=int, default=6)
    ap.add_argument("--subset", type=int, default=2048)
    ap.add_argument("--eval-subset", type=int, default=512)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None,
                    help="directory for per-n checkpoints (default: none kept)")
    args = ap.parse_args(argv)

    n_values = [int(tok) for tok in args.n_values.split(",") if tok.strip()]
    rng = Rng(args.seed)
    train_data = synthetic_bars(args.subset, rng, stream="synthetic-train")
    eval_data = synthetic_bars(args.eval_subset, rng, stream="synthetic-eval")

    print(f"# synthetic bars, {args.subset} train / {args.eval_subset} eval, "
          f"{args.epochs} epochs, seed {args.seed}")
    print(f"{'n':>3} {'params':>8} {'eval acc':>9} {'ao ld1':>8} {'ao ld2':>8} {'secs':>6}")
    for n in n_values:
        cfg = TrainConfig(n1=n, n2=n, epochs=args.epochs, seed=args.seed,
                          subset=args.subset, eval_subset=args.eval_subset)
        net = TinyNet.create(n1=n, n2=n, post=cfg.post, rng=Rng(cfg.seed))
        t0 = time.perf_counter()
        result = train(net, train_data, cfg, eval_dataset=eval_data)
        secs = time.perf_counter() - t0
        ao1 = average_offset(result.ao_batch["ld1"]).mean
        ao2 = average_offset(result.ao_batch["ld2"]).mean
        print(f"{n:>3} {result.param_count:>8} {result.final_acc:>9.4f} "
              f"{ao1:>8.3f} {ao2:>8.3f} {secs:>6.1f}")
        if args.out is not None:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            save_net(net, out_dir / f"net_n{n}.ldt", config=cfg)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
