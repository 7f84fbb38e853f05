"""Training harness: data loading, the two-layer net, and the SGD loop."""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from ldconv.geometry import load_custom_shape
from ldconv.layer import LdconvLayer, layer_records, layer_sidecar
from ldconv.tensor import Rng, write_tensors
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
    return TinyNet.create(n1=cfg.n1, n2=cfg.n2, strategy=cfg.strategy,
                          post=cfg.post, rng=Rng(cfg.seed if seed is None else seed))


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


def test_softmax_cross_entropy_matches_hand_value():
    logits = np.array([[2.0, 0.0, 0.0]], dtype=np.float32)
    loss, dlogits = softmax_cross_entropy(logits, np.array([0]))
    z = np.exp([0.0, -2.0, -2.0])
    assert loss == pytest.approx(-np.log(z[0] / z.sum()), rel=1e-6)
    assert dlogits.shape == (1, 3)
    assert dlogits.sum() == pytest.approx(0.0, abs=1e-7)


def test_strategy_swap_preserves_logits(tmp_path):
    # the strategy is a label of the layout, not a code path: logits are identical
    cfg = TrainConfig()
    images = synthetic_bars(8, Rng(1)).images
    want, _ = _net(cfg).forward(images)
    for strategy in ("conv3d-style", "column-conv"):
        other = _net(TrainConfig(strategy=strategy))
        assert np.array_equal(other.forward(images)[0], want)
        save_net(other, tmp_path / "net.ldt")
        back, _ = load_net(tmp_path / "net.ldt")
        assert back.ld1.strategy == back.ld2.strategy == strategy


def test_evaluate_tie_breaks_to_lowest_class():
    cfg = TrainConfig()
    net = _net(cfg)
    net.fc_w[:] = 0.0
    net.fc_b[:] = 0.0
    labels = np.array([0, 0, 1, 2], dtype=np.int64)
    data = Dataset(np.zeros((4, 1, 28, 28), dtype=np.float32), labels)
    # all logits equal -> argmax picks class 0 everywhere
    assert evaluate(net, data) == pytest.approx(0.5)


def test_evaluate_rejects_empty():
    net = _net(TrainConfig())
    with pytest.raises(ValueError, match="empty"):
        evaluate(net, Dataset(np.zeros((0, 1, 28, 28)), np.zeros(0, dtype=np.int64)))


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
    # one step at lr=1e30 overflows the activations; the offset field of the
    # evaluation that follows is non-finite
    data = synthetic_bars(8, Rng(10))
    cfg = TrainConfig(epochs=1, subset=8, batch=8, lr=1e30)
    with np.errstate(all="ignore"), \
            pytest.raises(DivergenceError, match="non-finite values at the evaluation"):
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
    with pytest.raises(ValueError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(strategy="sparse")


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
    net = TinyNet.create(dtype=np.float64)
    with pytest.raises(ValueError, match="float32 only"):
        save_net(net, tmp_path / "net.ldt")
    with pytest.raises(ValueError, match="float32 only"):
        write_tensors(tmp_path / "layer.ldt", layer_records(net.ld1))
    assert list(tmp_path.iterdir()) == []


def test_shape_file_checkpoint_loads_from_any_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    rel = "shapes/plus_5.txt"
    geo = load_custom_shape(Path(rel).read_text())
    net = TinyNet.create(geometry1=geo, geometry2=geo)
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


def test_load_net_rejects_layer_checkpoint(tmp_path):
    layer = LdconvLayer.create(3, 1, 2)
    path = tmp_path / "layer.ldt"
    write_tensors(path, layer_records(layer))
    Path(str(path) + ".json").write_text(json.dumps(layer_sidecar(layer)))
    with pytest.raises(ValueError, match="not a network checkpoint"):
        load_net(path)


# sha256 of the container and the sidecar that save_net writes for
# TinyNet.create(rng=Rng(7), post=..., geometry1=g, geometry2=g): any change to
# the record names, order, dims, payload or sidecar keys shows up here.
_CHECKPOINT_SHA256 = {
    ("default", None): (
        "5485dd766d9cc1541e54b487811378838f9b675c495c1a78a4746582bdf88809",
        "bf803afa2ef1e0fcfea4efa78f47f20fda45d74031813abb168eb873e93bd7de"),
    ("default", "plus_5"): (
        "5485dd766d9cc1541e54b487811378838f9b675c495c1a78a4746582bdf88809",
        "4dd53fe387995e52e87851bb4cf4a66bccedbbb278d9eb2ab0889b1461af4dca"),
    ("none", None): (
        "2e15509a7e10737e41cbe23780cbee2d798eb69b6626530b13bb44811ab87a85",
        "9d698810922d1e122d49c1ef0a5f2e54bc28f997512d6eab95fbe0226aedbed5"),
    ("none", "plus_5"): (
        "2e15509a7e10737e41cbe23780cbee2d798eb69b6626530b13bb44811ab87a85",
        "4917126d65fa49a9093bdc013b279cf5ba64cfcadf24cef07f51f3915f48beb2"),
}


@pytest.mark.parametrize(("post", "shape"), sorted(_CHECKPOINT_SHA256, key=str))
def test_checkpoint_bytes_are_pinned(tmp_path, post, shape):
    geo = None
    if shape is not None:
        root = Path(__file__).resolve().parent.parent
        geo = load_custom_shape((root / "shapes" / f"{shape}.txt").read_text())
    kwargs = {} if post == "default" else {"post": post}
    net = TinyNet.create(rng=Rng(7), geometry1=geo, geometry2=geo, **kwargs)
    path = tmp_path / "net.ldt"
    save_net(net, path)
    got = (hashlib.sha256(path.read_bytes()).hexdigest(),
           hashlib.sha256(Path(str(path) + ".json").read_bytes()).hexdigest())
    assert got == _CHECKPOINT_SHA256[(post, shape)]
