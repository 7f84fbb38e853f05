"""Acceptance gate: one check per release criterion, one printed line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines with measured runtimes.  Every criterion states its tolerance
and wall-clock budget; a criterion fails if its property fails OR its budget
is exceeded.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from test_geometry import coords_by_direct_construction
from test_layer import layout_deviation

from ldconv.analysis import average_offset, growth_audit
from ldconv.geometry import gen_initial_coords
from ldconv.gradcheck import check_layer_gradients, fd_check, off_lattice_offsets
from ldconv.layer import LdconvLayer, OffsetField
from ldconv.tensor import Rng, Tensor4, conv2d_reference, rand_uniform
from ldconv.training import (NUM_CLASSES, TinyNet, TrainConfig, softmax_cross_entropy,
                             synthetic_bars, train)


def _run(num, desc, budget_s, fn):
    t0 = time.perf_counter()
    ok, detail = fn()
    elapsed = time.perf_counter() - t0
    in_budget = elapsed < budget_s
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"{status} criterion {num}: {desc} — {detail} "
          f"[{elapsed:.2f}s / budget {budget_s:g}s]")
    assert ok, f"criterion {num} failed: {detail}"
    assert in_budget, f"criterion {num} took {elapsed:.2f}s, budget {budget_s:g}s"


def _net(cfg, seed=None):
    return TinyNet.create(n1=cfg.n1, n2=cfg.n2, post=cfg.post,
                          rng=Rng(cfg.seed if seed is None else seed))


def test_criterion_1_coordinate_oracle():
    def check():
        for n in range(1, 65):
            got = list(gen_initial_coords(n).coords)
            want = coords_by_direct_construction(n)
            if got != want:
                return False, f"n={n}: {got} != {want}"
        return True, "n=1..64 identical to the independent construction (exact)"
    _run(1, "coordinate generator matches the direct-construction oracle", 1.0, check)


def test_criterion_2_strategy_equivalence():
    def check():
        rng = Rng(2024)
        cfg_gen = rng.stream("configs")
        worst = 0.0
        for _ in range(100):
            n = int(cfg_gen.integers(1, 13))
            c_in = int(cfg_gen.integers(1, 9))
            c_out = int(cfg_gen.integers(1, 9))
            h = int(cfg_gen.integers(3, 10))
            w = int(cfg_gen.integers(3, 10))
            seed = int(cfg_gen.integers(0, 2**31))
            layer_rng = Rng(seed)
            base = LdconvLayer.create(n, c_in, c_out, rng=layer_rng)
            base.offset_w = layer_rng.stream("offw").uniform(
                -0.1, 0.1, size=base.offset_w.shape).astype(np.float32)
            base.offset_b = layer_rng.stream("offb").uniform(
                -0.5, 0.5, size=base.offset_b.shape).astype(np.float32)
            x = rand_uniform((2, c_in, h, w), layer_rng, stream="x")
            worst = max(worst, layout_deviation(base, x))
        return worst < 1e-5, (f"100 random configs, layer vs conv3d-style and column-conv "
                              f"oracles, worst relative deviation {worst:.2e} (tol 1e-5)")
    _run(2, "three aggregation layouts compute the same map", 30.0, check)


def test_criterion_3_standard_conv_equivalence():
    def check():
        case_gen = Rng(3).stream("cases")
        worst = 0.0
        for case in range(20):
            k = (1, 2, 3)[case % 3]
            stride = int(case_gen.integers(1, 3))
            pad = int(case_gen.integers(0, 2))
            c_in = int(case_gen.integers(1, 5))
            c_out = int(case_gen.integers(1, 5))
            seed = int(case_gen.integers(0, 2**31))
            layer = LdconvLayer.create(k * k, c_in, c_out, stride=stride,
                                       padding=pad, rng=Rng(seed))
            x = rand_uniform((2, c_in, 7, 7), Rng(seed), stream="x")
            y = layer.forward(x)[0].data
            w = layer.agg_w.reshape(c_out, c_in, k, k)
            ref = conv2d_reference(x, w, bias=layer.agg_b, stride=stride,
                                   pad=pad).data
            crop = y[:, :, :ref.shape[2], :ref.shape[3]]
            scale = max(float(np.max(np.abs(ref))), 1e-12)
            worst = max(worst, float(np.max(np.abs(crop - ref))) / scale)
        return worst < 1e-5, \
            f"20 zero-offset cases (N=1/4/9, strides, padding), worst {worst:.2e} (tol 1e-5)"
    _run(3, "zero-offset layers equal the direct reference convolution", 10.0, check)


def _net_check(n, post, seed, only=None, double_ld2_upstream=False):
    """fd_check of a float64 TinyNet's params() groups (all, or those named in
    only) on 3 images of 1x11x11, through softmax cross-entropy."""
    rng = Rng(seed)
    net = TinyNet.create(n, n, post=post, rng=rng)
    net = TinyNet(**{name: part.astype(np.float64) for name, part in vars(net).items()})
    gen = rng.stream("net/fixture")
    # ld2's input reaches about 3 after the post stage, past the [-1, 1] the
    # jitter bound assumes; its grid still kept >= 0.25 from the lattice
    for layer in (net.ld1, net.ld2):
        off_lattice_offsets(layer, gen)
    images = gen.random((3, 1, 11, 11))
    labels = gen.integers(0, NUM_CLASSES, size=3)
    if double_ld2_upstream:       # the fault a wrong pool factor would cause
        ld2 = net.ld2
        ld2.backward = lambda cache, up, **kw: LdconvLayer.backward(
            ld2, cache, Tensor4(2.0 * up.data), **kw)

    def loss():
        return softmax_cross_entropy(net.forward(images)[0], labels)[0]

    logits, cache = net.forward(images)
    grads = net.backward(cache, softmax_cross_entropy(logits, labels)[1])
    groups = {name: (grads[name], param) for name, param in net.params().items()
              if only is None or name in only}
    return fd_check(loss, groups, eps=1e-5, tol=1e-6)


def test_criterion_4_gradient_correctness():
    def check():
        net_worst = 0.0
        for n, post in ((5, "normalize+activation"), (3, "none")):
            for res in _net_check(n, post, seed=0):
                net_worst = max(net_worst, res.max_rel_err)
                if not res.passed:
                    return False, f"TinyNet n={n} {post} {res.group}: {res.max_rel_err:.2e}"
        faulty = _net_check(5, "normalize+activation", seed=0,
                            only=("ld1.post_shift", "ld2.post_shift", "fc.b"),
                            double_ld2_upstream=True)
        if [res.passed for res in faulty] != [False, False, True]:
            return False, "doubled ld2 upstream, want ld1/ld2 to fail and fc.b to pass: " + \
                ", ".join(f"{res.group} {res.max_rel_err:.1e}" for res in faulty)
        worst = 0.0
        runs = 0
        for n in (1, 3, 5, 9):
            for seed in range(5):
                results = check_layer_gradients(dims=(2, 3, 6, 6), n=n,
                                                seed=100 * n + seed, dtype=np.float64)
                for res in results:
                    worst = max(worst, res.max_rel_err)
                    if not res.passed:
                        return False, f"n={n} seed={seed} {res.group}: {res.max_rel_err:.2e}"
                runs += 1
        sab = check_layer_gradients(dims=(2, 3, 6, 6), n=3, seed=0,
                                    dtype=np.float64, sabotage=True)
        if all(r.passed for r in sab):
            return False, "sabotaged gradients were not detected"
        return True, (f"{runs} runs (N in {{1,3,5,9}}, 20 seeds), 64-bit worst "
                      f"{worst:.2e} (tol 1e-6); sabotage detected; float64 TinyNet, "
                      f"every params() group (n=5 post, n=3 none), worst {net_worst:.2e} "
                      f"(tol 1e-6); doubled ld2 upstream detected")
    _run(4, "analytic gradients match central finite differences", 120.0, check)


def test_criterion_5_linear_growth(tmp_path):
    def check():
        rows = growth_audit(16, 32, range(1, 17))
        deltas = {row.delta_params for row in rows[1:]}
        if len(deltas) != 1:
            return False, f"parameter deltas not constant: {sorted(deltas)}"
        from ldconv.cli import main
        out_dir = tmp_path / "growth"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["growth", "--c-in", "16", "--c-out", "32", "--n-max",
                         "16", "--out", str(out_dir)])
        if code != 0:
            return False, "growth command failed"
        chart = (out_dir / "growth.svg").read_text()
        if "deformable params (linear)" not in chart:
            return False, "chart lacks the linear curve"
        if "k x k conv params (quadratic)" not in chart:
            return False, "chart lacks the quadratic reference curve"
        return True, (f"delta exactly {deltas.pop()} per unit N over N=1..16 "
                      f"(integer equality); chart holds both curves")
    _run(5, "parameter count grows linearly and the chart shows both curves", 1.0, check)


def test_criterion_6_average_offset_metric():
    def check():
        zero = average_offset(OffsetField(n=3, data=np.zeros((1, 6, 3, 3),
                                                             dtype=np.float32)))
        if zero.mean != 0.0 or np.any(zero.per_position != 0.0):
            return False, "zero offsets gave nonzero AO"
        hand = average_offset(OffsetField(
            n=2, data=np.asarray([[[[1.0]], [[-1.0]], [[2.0]], [[-2.0]]]],
                                 dtype=np.float32)))
        if hand.per_position[0, 0, 0] != 1.5:
            return False, f"[1,-1,2,-2] gave {hand.per_position[0, 0, 0]}, want 1.5"
        base_field = OffsetField(n=3, data=Rng(6).stream("off").uniform(
            -2, 2, size=(2, 6, 4, 4)).astype(np.float32))
        base = average_offset(base_field).per_position
        scale_gen = Rng(6).stream("scales")
        for _ in range(10):
            # exact homogeneity is checked with power-of-two factors, which
            # scale IEEE floats without rounding
            c = float(np.ldexp(1.0, int(scale_gen.integers(-6, 7))))
            if scale_gen.random() < 0.5:
                c = -c
            scaled = average_offset(OffsetField(
                n=3, data=np.asarray(c * base_field.data, dtype=np.float32)))
            want = np.asarray(abs(c) * base, dtype=np.float32)
            if not np.array_equal(scaled.per_position, want):
                return False, f"AO(c*off) != |c|*AO(off) for c={c}"
        return True, ("zero field -> 0; [1,-1,2,-2] -> 1.5 exactly; "
                      "10 random power-of-two scales exactly homogeneous")
    _run(6, "average-offset metric: exact values and scale homogeneity", 1.0, check)


def test_criterion_7_training_sanity():
    def check():
        t_start = time.perf_counter()
        data = synthetic_bars(64, Rng(7), stream="synthetic-train")
        overfit_cfg = TrainConfig(epochs=200, subset=32, batch=8, lr=0.05, seed=3)

        def overfit_run():
            net = _net(overfit_cfg)
            res = train(net, data, overfit_cfg)
            return res, net

        res_a, net_a = overfit_run()
        if res_a.final_train_acc != 1.0:
            return False, f"overfit accuracy {res_a.final_train_acc:.3f} != 1.0"
        if not res_a.final_loss < 0.05:
            return False, f"overfit final loss {res_a.final_loss:.4f} >= 0.05"
        res_b, net_b = overfit_run()
        if res_a.loss != res_b.loss:
            return False, "overfit loss curves differ between identical runs"
        for (name, pa), pb in zip(net_a.params().items(), net_b.params().values()):
            if not np.array_equal(pa, pb):
                return False, f"parameter {name} differs between identical runs"

        rng = Rng(0)
        train_data = synthetic_bars(2048, rng, stream="synthetic-train")
        eval_data = synthetic_bars(512, rng, stream="synthetic-eval")
        std_cfg = TrainConfig()    # 10 epochs, subset 2048
        std_res = train(_net(std_cfg), train_data, std_cfg, eval_dataset=eval_data)
        if std_res.final_acc < 0.90:
            return False, f"held-out accuracy {std_res.final_acc:.3f} < 0.90"
        elapsed = time.perf_counter() - t_start
        return True, (f"overfit 32x200ep: acc 1.000, final loss "
                      f"{res_a.final_loss:.4f} (<0.05), bitwise-reproducible; "
                      f"2048/512 10ep: held-out acc {std_res.final_acc:.3f} "
                      f"(>=0.90); total {elapsed:.0f}s")
    _run(7, "training overfits a tiny set and learns the synthetic task", 300.0, check)


def test_criterion_8_offsets_receive_gradient():
    def check():
        data = synthetic_bars(8, Rng(8), stream="synthetic-train")
        cfg = TrainConfig(epochs=1, subset=8, batch=8)
        net = _net(cfg)
        before = {k: v.copy() for k, v in net.params().items()
                  if k.endswith("offset_w")}
        train(net, data, cfg)    # one batch == one SGD step
        after = net.params()
        changed = sum(int(np.sum(after[k] != v)) for k, v in before.items())
        return changed >= 1, (f"{changed} offset-weight elements changed after "
                              f"one SGD step (need >= 1)")
    _run(8, "gradients reach the offset predictor through the sampler", 5.0, check)


def test_criterion_9_byte_identical_reports(tmp_path):
    def check():
        # no thread variable: the default alone must make the runs repeat
        env = {k: v for k, v in os.environ.items()
               if k not in ("LDCONV_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            {"epochs": 2, "subset": 48, "eval_subset": 16, "batch": 16, "seed": 5}))

        def invoke(args):
            proc = subprocess.run([sys.executable, "-m", "ldconv.cli", *args],
                                  env=env, capture_output=True, text=True,
                                  timeout=240)
            if proc.returncode != 0:
                raise AssertionError(f"{args} exited {proc.returncode}: {proc.stderr}")

        for name in ("t1", "t2"):
            invoke(["train", str(cfg_path), "--synthetic",
                    "--out", str(tmp_path / name)])
        train_same = (tmp_path / "t1" / "report.json").read_bytes() == \
            (tmp_path / "t2" / "report.json").read_bytes()
        ckpt_same = (tmp_path / "t1" / "checkpoint.ldt").read_bytes() == \
            (tmp_path / "t2" / "checkpoint.ldt").read_bytes()
        for name in ("g1.json", "g2.json"):
            invoke(["check-grad", "--dims", "1,2,5,5",
                    "--out", str(tmp_path / name)])
        grad_same = (tmp_path / "g1.json").read_bytes() == \
            (tmp_path / "g2.json").read_bytes()
        ok = train_same and ckpt_same and grad_same
        return ok, (f"train report identical: {train_same}, checkpoint identical: "
                    f"{ckpt_same}, gradient report identical: {grad_same} "
                    f"(two fresh processes each, no thread variable set)")
    _run(9, "seeded runs serialise byte-identically across processes", 300.0, check)
