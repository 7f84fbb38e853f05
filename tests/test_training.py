"""Training harness: data loading, the two-layer net, and the SGD loop."""

import hashlib
import json
import os
import platform
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ldconv.geometry import load_custom_shape
from ldconv.layer import LdconvLayer, layer_sidecar
from ldconv.tensor import Rng, Tensor4
from ldconv.training import (
    Dataset,
    DivergenceError,
    TinyNet,
    TrainConfig,
    evaluate,
    load_idx,
    load_net,
    save_net,
    softmax_cross_entropy,
    synthetic_bars,
    train,
)


def _write_idx_images(path, array):
    m, h, w = array.shape
    path.write_bytes(struct.pack(">4I", 0x00000803, m, h, w) + array.tobytes())


def _write_idx_labels(path, labels):
    path.write_bytes(struct.pack(">2I", 0x00000801, len(labels)) + bytes(labels))


def _net(cfg, seed=None):
    return TinyNet.create(n1=cfg.n1, n2=cfg.n2, post=cfg.post,
                          rng=Rng(cfg.seed if seed is None else seed))


# -- IDX loading ------------------------------------------------------------------


def test_idx_round_trip(tmp_path):
    gen = Rng(0).stream("pixels")
    raw = gen.integers(0, 256, size=(6, 28, 28)).astype(np.uint8)
    labels = [3, 1, 4, 1, 5, 9]
    _write_idx_images(tmp_path / "img", raw)
    _write_idx_labels(tmp_path / "lab", labels)
    data = load_idx(tmp_path / "img", tmp_path / "lab")
    assert data.images.shape == (6, 1, 28, 28)
    assert data.images.dtype == np.float32
    assert np.allclose(data.images[:, 0], raw.astype(np.float32) / 255.0)
    assert data.labels.tolist() == labels
    assert np.all(data.images >= 0.0) and np.all(data.images <= 1.0)


def test_idx_ten_thousand_image_header(tmp_path):
    raw = np.zeros((10000, 28, 28), dtype=np.uint8)
    _write_idx_images(tmp_path / "img", raw)
    _write_idx_labels(tmp_path / "lab", [0] * 10000)
    data = load_idx(tmp_path / "img", tmp_path / "lab")
    assert data.images.shape == (10000, 1, 28, 28)


def test_idx_bad_magic(tmp_path):
    (tmp_path / "img").write_bytes(struct.pack(">4I", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
    _write_idx_labels(tmp_path / "lab", [0])
    with pytest.raises(ValueError, match="bad magic"):
        load_idx(tmp_path / "img", tmp_path / "lab")


def test_idx_truncated_payload(tmp_path):
    (tmp_path / "img").write_bytes(struct.pack(">4I", 0x00000803, 2, 28, 28) + b"\x00" * 100)
    _write_idx_labels(tmp_path / "lab", [0, 1])
    with pytest.raises(ValueError, match="truncated"):
        load_idx(tmp_path / "img", tmp_path / "lab")


def test_idx_count_mismatch(tmp_path):
    _write_idx_images(tmp_path / "img", np.zeros((3, 4, 4), dtype=np.uint8))
    _write_idx_labels(tmp_path / "lab", [0, 1])
    with pytest.raises(ValueError, match="count mismatch"):
        load_idx(tmp_path / "img", tmp_path / "lab")


def test_dataset_validation():
    with pytest.raises(ValueError, match="count mismatch"):
        Dataset(np.zeros((3, 1, 4, 4)), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError, match="labels outside"):
        Dataset(np.zeros((2, 1, 4, 4)), np.array([0, 10]))
    with pytest.raises(ValueError, match="subset"):
        Dataset(np.zeros((2, 1, 4, 4)), np.zeros(2, dtype=np.int64)).take(3)
    # a negative count would slice [:-k] and silently drop images
    with pytest.raises(ValueError, match="subset must be >= 0"):
        Dataset(np.zeros((10, 1, 4, 4)), np.zeros(10, dtype=np.int64)).take(-3)


# -- synthetic data ----------------------------------------------------------------


def test_synthetic_bars_contract():
    data = synthetic_bars(64, Rng(7))
    assert data.images.shape == (64, 1, 28, 28)
    assert np.all(data.images >= 0.0) and np.all(data.images <= 1.0)
    assert set(np.unique(data.labels)) == {0, 1, 2, 3}
    again = synthetic_bars(64, Rng(7))
    assert np.array_equal(data.images, again.images)
    assert np.array_equal(data.labels, again.labels)
    other = synthetic_bars(64, Rng(8))
    assert np.any(data.images != other.images)


def test_synthetic_bars_paint_full_span_bars():
    data = synthetic_bars(32, Rng(3))
    for i in range(32):
        img = data.images[i, 0]
        label = int(data.labels[i])
        full_rows = int(np.sum(np.all(img == 1.0, axis=1)))
        full_cols = int(np.sum(np.all(img == 1.0, axis=0)))
        if label == 0:
            assert 2 <= full_rows <= 4 and full_cols == 0
        elif label == 1:
            assert 2 <= full_cols <= 4 and full_rows == 0
        elif label == 2:
            assert 4 <= full_rows <= 8 and full_cols == 0
        else:
            assert 4 <= full_cols <= 8 and full_rows == 0


# -- network -----------------------------------------------------------------------


def test_net_forward_dims_and_unique_names():
    cfg = TrainConfig()
    net = _net(cfg)
    logits, _ = net.forward(np.zeros((3, 1, 28, 28), dtype=np.float32))
    assert logits.shape == (3, 10)
    names = list(net.params())
    assert len(names) == len(set(names))
    assert net.param_count() == sum(p.size for p in net.params().values())


def test_offset_fields_match_the_forward_caches():
    net = TinyNet.create(rng=Rng(3))
    for layer in (net.ld1, net.ld2):
        gen = np.random.default_rng(layer.c_in)
        layer.offset_w = gen.uniform(-0.1, 0.1, layer.offset_w.shape).astype(np.float32)
        layer.offset_b = gen.uniform(-0.5, 0.5, layer.offset_b.shape).astype(np.float32)
    images = synthetic_bars(8, Rng(3)).images
    _, cache = net.forward(images)
    fields = net.offset_fields(images)
    for name, key in (("ld1", "cache1"), ("ld2", "cache2")):
        expected = cache[key].offsets
        assert fields[name].n == expected.n
        assert fields[name].data.tobytes() == expected.data.tobytes()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are set on glibc only")
def test_forward_does_not_fault_its_temporaries_back_in():
    # Without ldconv's heap thresholds glibc unmaps and trims the large
    # temporaries after every call: about 10,000 minor faults per forward.
    script = (
        "import resource, ldconv\n"
        "from ldconv import Rng, TinyNet, synthetic_bars\n"
        "net = TinyNet.create(rng=Rng(0))\n"
        "images = synthetic_bars(256, Rng(0)).images\n"
        "for _ in range(3):\n"
        "    net.forward(images)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(5):\n"
        "    net.forward(images)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert float(proc.stdout) < 200


def test_net_backward_skips_only_ld1_input_grad(monkeypatch):
    net = TinyNet.create(rng=Rng(4))
    for layer in (net.ld1, net.ld2):
        gen = np.random.default_rng(layer.c_in)
        layer.offset_w = gen.uniform(-0.1, 0.1, layer.offset_w.shape).astype(np.float32)
        layer.offset_b = gen.uniform(-0.5, 0.5, layer.offset_b.shape).astype(np.float32)
    data = synthetic_bars(8, Rng(4))
    logits, cache = net.forward(data.images)
    _, dlogits = softmax_cross_entropy(logits, data.labels)

    calls = []
    backward = LdconvLayer.backward

    def spy(layer, *args, **kwargs):
        calls.append(("ld1" if layer is net.ld1 else "ld2", kwargs))
        return backward(layer, *args, **kwargs)

    monkeypatch.setattr(LdconvLayer, "backward", spy)
    grads = net.backward(cache, dlogits)
    assert calls == [("ld2", {}), ("ld1", {"input_grad": False})]

    def with_input_grad(layer, *args, **kwargs):
        return backward(layer, *args, **dict(kwargs, input_grad=True))

    monkeypatch.setattr(LdconvLayer, "backward", with_input_grad)
    full = net.backward(cache, dlogits)
    assert list(grads) == list(full)
    for name, grad in full.items():
        assert grads[name].dtype == grad.dtype and grads[name].tobytes() == grad.tobytes(), name


def test_train_step_copies_its_batch_once(monkeypatch):
    # The batch train draws with a fancy index is already a fresh array, so
    # Tensor4 keeps it; evaluate's slices are views of the dataset and are
    # copied.  Counts the Tensor4 copies inside each TinyNet.forward.
    copies = []          # [followed by a backward, Tensor4 copies] per forward
    inside = []
    post_init = Tensor4.__post_init__

    def counting(self):
        if inside and np.asarray(self.data).flags.writeable:
            copies[-1][1] += 1
        post_init(self)

    forward, backward = TinyNet.forward, TinyNet.backward

    def counted_forward(net, images):
        copies.append([False, 0])
        inside.append(True)
        try:
            return forward(net, images)
        finally:
            inside.pop()

    def marked_backward(net, cache, dlogits):
        copies[-1][0] = True           # the forward just before is a training step
        return backward(net, cache, dlogits)

    monkeypatch.setattr(Tensor4, "__post_init__", counting)
    monkeypatch.setattr(TinyNet, "forward", counted_forward)
    monkeypatch.setattr(TinyNet, "backward", marked_backward)
    cfg = TrainConfig(epochs=1, subset=16, batch=8)
    train(_net(cfg), synthetic_bars(16, Rng(1)), cfg)
    steps = [count for trained, count in copies if trained]
    others = [count for trained, count in copies if not trained]
    assert steps == [0, 0]                      # the fancy index was the one copy
    assert others and all(count == 1 for count in others)


def test_final_metrics_forward_each_image_once_at_the_training_batch(monkeypatch):
    # The post stage normalises with batch statistics, so after the last epoch
    # the training subset and the held-out set are each forwarded once, in
    # batches of config.batch: no second pass for the loss, no larger batch.
    sizes = []
    forward = TinyNet.forward

    def spy(net, images):
        sizes.append(len(images))
        return forward(net, images)

    monkeypatch.setattr(TinyNet, "forward", spy)
    cfg = TrainConfig(epochs=1, subset=64, batch=32)
    res = train(_net(cfg), synthetic_bars(64, Rng(12)), cfg,
                eval_dataset=synthetic_bars(32, Rng(13), stream="synthetic-eval"))
    assert sizes == [32, 32, 32, 32, 32]        # two steps, train subset, held-out set
    assert 0.0 <= res.final_acc <= 1.0 and np.isfinite(res.final_loss)


def test_softmax_cross_entropy_matches_hand_value():
    logits = np.array([[2.0, 0.0, 0.0]], dtype=np.float32)
    loss, dlogits = softmax_cross_entropy(logits, np.array([0]))
    z = np.exp([0.0, -2.0, -2.0])
    assert loss == pytest.approx(-np.log(z[0] / z.sum()), rel=1e-6)
    assert dlogits.shape == (1, 3)
    assert dlogits.sum() == pytest.approx(0.0, abs=1e-7)


def test_evaluate_tie_breaks_to_lowest_class():
    cfg = TrainConfig()
    net = _net(cfg)
    net.fc_w[:] = 0.0
    net.fc_b[:] = 0.0
    labels = np.array([0, 0, 1, 2], dtype=np.int64)
    data = Dataset(np.zeros((4, 1, 28, 28), dtype=np.float32), labels)
    # all logits equal -> argmax picks class 0 everywhere, each loss is ln 10
    acc, loss = evaluate(net, data, batch=4)
    assert acc == pytest.approx(0.5)
    assert loss == pytest.approx(np.log(10.0), rel=1e-6)


def test_evaluate_loss_is_the_per_image_mean():
    # a short last batch weighs by its image count, not as one batch
    cfg = TrainConfig()
    net = _net(cfg, seed=3)
    data = synthetic_bars(5, Rng(3))
    losses = [softmax_cross_entropy(net.forward(data.images[i:i + 2])[0],
                                    data.labels[i:i + 2])[0] for i in (0, 2, 4)]
    _, loss = evaluate(net, data, batch=2)
    assert loss == (losses[0] * 2 + losses[1] * 2 + losses[2] * 1) / 5


def test_evaluate_peak_memory_is_one_forward():
    # each batch's cache is dropped before the next forward runs, so the
    # loop holds no more than one forward does
    net = _net(TrainConfig(), seed=4)
    data = synthetic_bars(256, Rng(4))
    net.forward(data.images[:64])

    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = traced_peak(lambda: net.forward(data.images[:64]))
    assert traced_peak(lambda: evaluate(net, data, batch=64)) <= 1.15 * one


def test_eval_forward_peak_memory_keeps_no_post_activations():
    # ld1's cache lives through ld2's forward; its post stage keeps two
    # per-channel vectors, not xhat, z and sig (1.53 MiB each at batch 256,
    # which took the traced peak to 17.7 MiB)
    rng = Rng(1)
    net = TinyNet.create(rng=rng)
    images = synthetic_bars(256, rng, stream="synthetic-eval").images
    net.forward(images)
    tracemalloc.start()
    try:
        net.forward(images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13.5 * 2**20


def test_evaluate_rejects_empty():
    net = _net(TrainConfig())
    with pytest.raises(ValueError, match="empty"):
        evaluate(net, Dataset(np.zeros((0, 1, 28, 28)), np.zeros(0, dtype=np.int64)), batch=8)


# -- training loop -----------------------------------------------------------------


def test_lr_zero_leaves_parameters_untouched():
    data = synthetic_bars(16, Rng(2))
    cfg = TrainConfig(epochs=2, subset=16, batch=8, lr=0.0)
    net = _net(cfg)
    before = {k: v.copy() for k, v in net.params().items()}
    train(net, data, cfg)
    after = net.params()
    for name, val in before.items():
        assert np.array_equal(val, after[name]), name


def test_loss_decreases_over_five_seeds():
    data = synthetic_bars(64, Rng(5))
    for seed in range(5):
        cfg = TrainConfig(epochs=10, subset=32, batch=8, lr=0.05, seed=seed)
        res = train(_net(cfg), data, cfg)
        assert res.loss[9] < res.loss[0], f"seed {seed}: {res.loss}"


def test_training_is_deterministic():
    data = synthetic_bars(24, Rng(6))
    cfg = TrainConfig(epochs=2, subset=24, batch=8)

    def run():
        net = _net(cfg)
        res = train(net, data, cfg)
        return res, net

    res_a, net_a = run()
    res_b, net_b = run()
    assert res_a.loss == res_b.loss
    assert res_a.acc == res_b.acc
    for (name, pa), pb in zip(net_a.params().items(), net_b.params().values()):
        assert np.array_equal(pa, pb), name


def test_offset_weights_move_after_one_step():
    data = synthetic_bars(8, Rng(9))
    cfg = TrainConfig(epochs=1, subset=8, batch=8)
    net = _net(cfg)
    before = {k: v.copy() for k, v in net.params().items() if k.endswith("offset_w")}
    train(net, data, cfg)
    after = net.params()
    assert any(np.any(after[k] != v) for k, v in before.items())


def test_divergence_raises():
    data = synthetic_bars(8, Rng(10))
    cfg = TrainConfig(epochs=1, subset=8, batch=8)
    net = _net(cfg)
    net.fc_b[0] = np.nan
    with pytest.raises(DivergenceError, match="epoch 1, batch 1"):
        train(net, data, cfg)


def test_non_finite_offsets_raise_divergence():
    # an infinite offset bias makes the field non-finite with no overflow
    data = synthetic_bars(8, Rng(10))
    cfg = TrainConfig(epochs=1, subset=8, batch=8)
    net = _net(cfg)
    net.ld1.offset_b[0] = np.inf
    with pytest.raises(DivergenceError, match="non-finite values at epoch 1, batch 1"):
        train(net, data, cfg)


def test_an_overflow_in_the_evaluation_raises_divergence():
    # one step at lr=1e30 leaves the weights finite; the evaluation that
    # follows overflows the activations
    data = synthetic_bars(8, Rng(10))
    cfg = TrainConfig(epochs=1, subset=8, batch=8, lr=1e30)
    with pytest.raises(DivergenceError,
                       match="overflow encountered in square at the evaluation after epoch 1"):
        train(_net(cfg), data, cfg)


def test_train_result_metrics_shape():
    data = synthetic_bars(16, Rng(11))
    cfg = TrainConfig(epochs=3, subset=16, batch=8)
    res = train(_net(cfg), data, cfg)
    metrics = res.metrics()
    assert len(metrics["loss"]) == 3 and len(metrics["acc"]) == 3
    assert 0.0 <= metrics["final_acc"] <= 1.0
    assert metrics["param_count"] == _net(cfg).param_count()
    assert set(res.ao_batch) == {"ld1", "ld2"}


# -- config ------------------------------------------------------------------------


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        TrainConfig.from_dict({"epochs": 1, "optimizer": "adam"})


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch=0)
    for lr in (-0.1, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="lr must be finite and >= 0"):
            TrainConfig(lr=lr)
    for eval_subset in (0, -1):
        with pytest.raises(ValueError, match="eval_subset must be >= 1"):
            TrainConfig(eval_subset=eval_subset)


@pytest.mark.parametrize(("key", "value"), [
    ("epochs", "2"), ("batch", 8.5), ("n1", 2.5), ("seed", True), ("lr", "0.1"),
    ("lr", False), ("post", 1), ("data_dir", 3)])
def test_config_rejects_mistyped_values(key, value):
    with pytest.raises(ValueError, match=f"config key '{key}' must be"):
        TrainConfig(**{key: value})


# -- checkpointing -----------------------------------------------------------------


def test_net_checkpoint_round_trip(tmp_path):
    data = synthetic_bars(16, Rng(12))
    cfg = TrainConfig(epochs=1, subset=16, batch=8)
    net = _net(cfg)
    train(net, data, cfg)
    path = tmp_path / "net.ldt"
    save_net(net, path, cfg)
    back, sidecar = load_net(path)
    assert sidecar["kind"] == "tinynet"
    assert sidecar["config"]["epochs"] == 1
    probe = data.images[:4]
    assert np.array_equal(net.forward(probe)[0], back.forward(probe)[0])
    for (name, want), got in zip(net.params().items(), back.params().values()):
        assert got.dtype == np.float32 and np.array_equal(got, want), name


def test_checkpoints_refuse_float64(tmp_path):
    net = TinyNet(**{name: part.astype(np.float64)
                     for name, part in vars(TinyNet.create()).items()})
    assert all(arr.dtype == np.float64 for arr in net.params().values())
    with pytest.raises(ValueError, match="float32 only"):
        save_net(net, tmp_path / "net.ldt")
    # one float64 layer in an otherwise float32 net is refused as well
    mixed = TinyNet.create()
    mixed.ld1 = mixed.ld1.astype(np.float64)
    with pytest.raises(ValueError, match="float32 only"):
        save_net(mixed, tmp_path / "net.ldt")
    assert list(tmp_path.iterdir()) == []


def test_shape_file_checkpoint_loads_from_any_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    rel = "shapes/plus_5.txt"
    geo = load_custom_shape(Path(rel).read_text())
    net = TinyNet.create(geometry=geo)
    path = tmp_path / "net.ldt"
    save_net(net, path)
    monkeypatch.chdir(tmp_path)
    back, _ = load_net(path)
    assert back.ld1.geometry == back.ld2.geometry == geo
    # a sidecar that names a shape file but records no points cannot be trusted
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    del sidecar["ld1"]["coords"]
    sidecar["ld1"]["shape_file"] = rel
    Path(str(path) + ".json").write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match="coords"):
        load_net(path)


def test_sidecar_with_old_strategy_keys_still_loads(tmp_path):
    # sidecars written before the layout label was dropped hold "strategy" in
    # both layers and in the config; the loader ignores it
    net = TinyNet.create(rng=Rng(4))
    for layer in (net.ld1, net.ld2):
        gen = np.random.default_rng(layer.c_in)
        layer.offset_w = gen.uniform(-0.1, 0.1, layer.offset_w.shape).astype(np.float32)
    path = tmp_path / "old.ldt"
    save_net(net, path, TrainConfig())
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    for part in ("ld1", "ld2", "config"):
        sidecar[part]["strategy"] = "column-conv"
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))
    back, loaded = load_net(path)
    assert loaded["config"]["strategy"] == "column-conv"
    images = synthetic_bars(8, Rng(4)).images
    assert np.array_equal(back.forward(images)[0], net.forward(images)[0])


def test_load_net_rejects_layer_checkpoint(tmp_path):
    net = TinyNet.create(n1=3)
    path = tmp_path / "layer.ldt"
    save_net(net, path)
    Path(str(path) + ".json").write_text(json.dumps(layer_sidecar(net.ld1)))
    with pytest.raises(ValueError, match="not a network checkpoint"):
        load_net(path)


# sha256 of the container and the sidecar that save_net writes for
# TinyNet.create(rng=Rng(7), post=..., geometry=g): any change to
# the record names, order, dims, payload or sidecar keys shows up here.
_CHECKPOINT_SHA256 = {
    ("default", None): (
        "5485dd766d9cc1541e54b487811378838f9b675c495c1a78a4746582bdf88809",
        "ed6176b68d4e2d3827d584005a3e8b6d90ac2e2924b71770b326d49db5d3b607"),
    ("default", "plus_5"): (
        "5485dd766d9cc1541e54b487811378838f9b675c495c1a78a4746582bdf88809",
        "d321470f4931015da7f42b622350f2947460613b6a33bdade5a3cf5fb4eef37d"),
    ("none", None): (
        "2e15509a7e10737e41cbe23780cbee2d798eb69b6626530b13bb44811ab87a85",
        "235c967a2373bb8ad16b29c4c735266130d9af941db0819e91795b4c28c02d16"),
    ("none", "plus_5"): (
        "2e15509a7e10737e41cbe23780cbee2d798eb69b6626530b13bb44811ab87a85",
        "0faade4da0be443dd932f7499c1dc57f9e86d51067889ec431cd423e96302de0"),
}


@pytest.mark.parametrize(("post", "shape"), sorted(_CHECKPOINT_SHA256, key=str))
def test_checkpoint_bytes_are_pinned(tmp_path, post, shape):
    geo = None
    if shape is not None:
        root = Path(__file__).resolve().parent.parent
        geo = load_custom_shape((root / "shapes" / f"{shape}.txt").read_text())
    kwargs = {} if post == "default" else {"post": post}
    net = TinyNet.create(rng=Rng(7), geometry=geo, **kwargs)
    path = tmp_path / "net.ldt"
    save_net(net, path)
    got = (hashlib.sha256(path.read_bytes()).hexdigest(),
           hashlib.sha256(Path(str(path) + ".json").read_bytes()).hexdigest())
    assert got == _CHECKPOINT_SHA256[(post, shape)]
