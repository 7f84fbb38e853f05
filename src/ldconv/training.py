"""Minimal training harness: a two-layer deformable net on 28x28 grayscale.

The network is [deformable 1->8 stride 2, deformable 8->16 stride 2, global
average pool, linear 16->10]; each deformable layer applies its own
normalise-and-gate stage (x * sigmoid(x)) by default.  Optimisation is plain
SGD on softmax cross-entropy.  Data comes either from IDX files on disk or
from a built-in synthetic generator of axis-aligned bar images.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .layer import (LdconvLayer, NonFiniteError, OffsetField, STRATEGIES,
                    layer_from_records, layer_records, layer_sidecar)
from .tensor import Rng, Tensor4, read_tensors, write_tensors

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

NUM_CLASSES = 10


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or offset field."""


@dataclass(frozen=True)
class Dataset:
    images: np.ndarray   # (M, 1, H, W) float32 in [0, 1]
    labels: np.ndarray   # (M,) int64 in [0, NUM_CLASSES)

    def __post_init__(self):
        images = np.asarray(self.images, dtype=np.float32)
        labels = np.asarray(self.labels, dtype=np.int64)
        if images.ndim != 4 or images.shape[1] != 1:
            raise ValueError(f"images must be (M, 1, H, W), got {images.shape}")
        if labels.shape != (images.shape[0],):
            raise ValueError(
                f"image/label count mismatch: {images.shape[0]} vs {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= NUM_CLASSES):
            raise ValueError(f"labels outside [0, {NUM_CLASSES})")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.images.shape[0]

    def take(self, count: int) -> "Dataset":
        if count > len(self):
            raise ValueError(f"subset {count} exceeds dataset size {len(self)}")
        return Dataset(self.images[:count], self.labels[:count])


def _read_idx(path: Path, magic: int, ndim: int) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < 4 * (1 + ndim):
        raise ValueError(f"{path}: truncated IDX header")
    (got,) = struct.unpack_from(">I", blob, 0)
    if got != magic:
        raise ValueError(f"{path}: bad magic 0x{got:08x}, expected 0x{magic:08x}")
    dims = struct.unpack_from(f">{ndim}I", blob, 4)
    count = int(np.prod(dims, dtype=np.int64))
    start = 4 * (1 + ndim)
    if len(blob) < start + count:
        raise ValueError(f"{path}: truncated IDX payload "
                         f"({len(blob) - start} of {count} bytes)")
    return np.frombuffer(blob, dtype=np.uint8, count=count, offset=start).reshape(dims)


def load_idx(images_path, labels_path) -> Dataset:
    """Load a big-endian IDX image/label pair, scaling pixels to [0, 1]."""
    raw_images = _read_idx(Path(images_path), IDX_IMAGES_MAGIC, 3)
    raw_labels = _read_idx(Path(labels_path), IDX_LABELS_MAGIC, 1)
    if raw_images.shape[0] != raw_labels.shape[0]:
        raise ValueError(f"image/label count mismatch: {raw_images.shape[0]} images, "
                         f"{raw_labels.shape[0]} labels")
    m, h, w = raw_images.shape
    images = (raw_images.astype(np.float32) / 255.0).reshape(m, 1, h, w)
    return Dataset(images, raw_labels.astype(np.int64))


def synthetic_bars(count: int, rng: Rng, stream: str = "synthetic") -> Dataset:
    """28x28 axis-aligned bar images in four classes.

    0: one horizontal bar, 1: one vertical bar, 2: two horizontal bars,
    3: two vertical bars.  Bars are full-span, 2-4 pixels thick, over a
    uniform noise floor in [0, 0.1).
    """
    size = 28
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    gen = rng.stream(stream)
    images = (gen.random((count, 1, size, size), dtype=np.float32)
              * np.float32(0.1))
    labels = gen.integers(0, 4, size=count).astype(np.int64)
    for i in range(count):
        label = int(labels[i])
        horizontal = label in (0, 2)
        bars = 1 if label < 2 else 2
        thickness = int(gen.integers(2, 5))
        if bars == 1:
            starts = [int(gen.integers(1, size - thickness - 1))]
        else:
            first = int(gen.integers(1, size // 2 - thickness - 1))
            lo = first + thickness + 2
            second = int(gen.integers(lo, size - thickness - 1))
            starts = [first, second]
        for start in starts:
            if horizontal:
                images[i, 0, start:start + thickness, :] = 1.0
            else:
                images[i, 0, :, start:start + thickness] = 1.0
    return Dataset(images, labels)


# -- network -----------------------------------------------------------------


@dataclass
class TinyNet:
    ld1: LdconvLayer
    ld2: LdconvLayer
    fc_w: np.ndarray   # (NUM_CLASSES, 16)
    fc_b: np.ndarray   # (NUM_CLASSES,)

    @classmethod
    def create(cls, n1: int = 5, n2: int = 5, strategy: str = "channel-stack-1x1",
               post: str = "normalize+activation", rng: Rng | None = None,
               dtype=np.float32, geometry1=None, geometry2=None) -> "TinyNet":
        rng = rng if rng is not None else Rng(0)
        dtype = np.dtype(dtype)
        ld1 = LdconvLayer.create(n1, 1, 8, stride=2, strategy=strategy, post=post,
                                 rng=rng, dtype=dtype, name="ld1",
                                 geometry=geometry1)
        ld2 = LdconvLayer.create(n2, 8, 16, stride=2, strategy=strategy, post=post,
                                 rng=rng, dtype=dtype, name="ld2",
                                 geometry=geometry2)
        bound = float(np.sqrt(1.0 / 16))
        fc_w = rng.stream("fc/w").uniform(-bound, bound,
                                          size=(NUM_CLASSES, 16)).astype(dtype)
        return cls(ld1=ld1, ld2=ld2, fc_w=fc_w,
                   fc_b=np.zeros(NUM_CLASSES, dtype=dtype))

    @property
    def dtype(self):
        return self.fc_w.dtype

    def params(self) -> dict[str, np.ndarray]:
        out = self.ld1.params("ld1.")
        out.update(self.ld2.params("ld2."))
        out["fc.w"] = self.fc_w
        out["fc.b"] = self.fc_b
        return out

    def param_count(self) -> int:
        return sum(int(p.size) for p in self.params().values())

    def forward(self, images: np.ndarray):
        """images (B, 1, H, W) -> logits (B, NUM_CLASSES) plus a backward cache."""
        x = Tensor4(np.ascontiguousarray(images, dtype=self.dtype))
        h1, cache1 = self.ld1.forward(x)
        h2, cache2 = self.ld2.forward(h1)
        feats = h2.data.mean(axis=(2, 3))                      # global average pool
        logits = feats @ self.fc_w.T + self.fc_b
        return logits, {"cache1": cache1, "cache2": cache2, "feats": feats,
                        "pool_dims": h2.dims}

    def backward(self, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        dfeats = dlogits @ self.fc_w
        grads = {"fc.w": dlogits.T @ cache["feats"], "fc.b": dlogits.sum(axis=0)}
        b_n, c_n, h_n, w_n = cache["pool_dims"]
        dpool = np.broadcast_to(dfeats[:, :, None, None] / self.dtype.type(h_n * w_n),
                                (b_n, c_n, h_n, w_n)).astype(self.dtype)
        g2 = self.ld2.backward(cache["cache2"], Tensor4(dpool.copy()))
        for key, val in _layer_grads_dict(self.ld2, g2).items():
            grads[f"ld2.{key}"] = val
        g1 = self.ld1.backward(cache["cache1"], g2.x)
        for key, val in _layer_grads_dict(self.ld1, g1).items():
            grads[f"ld1.{key}"] = val
        return grads

    def offset_fields(self, images: np.ndarray) -> dict[str, OffsetField]:
        """Offset fields of both deformable layers on the given batch."""
        x = Tensor4(np.ascontiguousarray(images, dtype=self.dtype))
        h1, cache1 = self.ld1.forward(x)
        _, cache2 = self.ld2.forward(h1)
        return {"ld1": cache1.offsets, "ld2": cache2.offsets}


def _layer_grads_dict(layer: LdconvLayer, grads) -> dict[str, np.ndarray]:
    return {name: getattr(grads, name) for name in layer.params()}


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean loss and d(loss)/d(logits), with the usual max subtraction."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    batch = logits.shape[0]
    picked = probs[np.arange(batch), labels]
    loss = float(-np.log(np.maximum(picked, 1e-30)).mean())
    dlogits = probs.copy()
    dlogits[np.arange(batch), labels] -= 1.0
    return loss, (dlogits / batch).astype(logits.dtype)


def evaluate(net: TinyNet, dataset: Dataset, batch: int = 256) -> float:
    """Accuracy with argmax predictions; ties resolve to the lowest class."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    hits = 0
    for start in range(0, len(dataset), batch):
        logits, _ = net.forward(dataset.images[start:start + batch])
        hits += int((np.argmax(logits, axis=1)
                     == dataset.labels[start:start + batch]).sum())
    return hits / len(dataset)


# -- config / loop -----------------------------------------------------------


@dataclass
class TrainConfig:
    n1: int = 5
    n2: int = 5
    strategy: str = "channel-stack-1x1"
    epochs: int = 10
    batch: int = 32
    lr: float = 0.05
    seed: int = 0
    subset: int = 2048
    data_dir: str | None = None
    eval_subset: int = 512
    post: str = "normalize+activation"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.subset < 1:
            raise ValueError(f"subset must be >= 1, got {self.subset}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)


@dataclass
class TrainResult:
    loss: list[float]
    acc: list[float]
    final_loss: float
    final_acc: float
    final_train_acc: float
    param_count: int
    ao_batch: dict[str, OffsetField]
    net: TinyNet

    def metrics(self, ao_summaries: dict | None = None) -> dict:
        return {"loss": self.loss, "acc": self.acc,
                "final_loss": self.final_loss, "final_acc": self.final_acc,
                "final_train_acc": self.final_train_acc,
                "param_count": self.param_count, "ao": ao_summaries or {}}


def train(net: TinyNet, dataset: Dataset, config: TrainConfig,
          eval_dataset: Dataset | None = None,
          checkpoint_path=None) -> TrainResult:
    """SGD loop; returns per-epoch curves and the offset fields of one batch.

    final_acc is the held-out accuracy when eval_dataset is given, otherwise
    the final accuracy on the training subset.  Raises DivergenceError, naming
    the epoch and batch, as soon as a batch loss or an offset field is
    non-finite.
    """
    data = dataset.take(config.subset)
    rng = Rng(config.seed)
    losses: list[float] = []
    accs: list[float] = []
    try:
        for epoch in range(config.epochs):
            order = rng.stream(f"shuffle/{epoch:05d}").permutation(len(data))
            epoch_loss = 0.0
            epoch_hits = 0
            batches = 0
            for start in range(0, len(data), config.batch):
                where = f"epoch {epoch + 1}, batch {batches + 1}"
                take = order[start:start + config.batch]
                logits, cache = net.forward(data.images[take])
                loss, dlogits = softmax_cross_entropy(logits, data.labels[take])
                if not np.isfinite(loss):
                    raise DivergenceError(f"non-finite loss at {where}")
                grads = net.backward(cache, dlogits)
                params = net.params()
                for name, grad in grads.items():
                    params[name] -= np.asarray(config.lr * grad, dtype=net.dtype)
                epoch_loss += loss
                epoch_hits += int((np.argmax(logits, axis=1) == data.labels[take]).sum())
                batches += 1
            losses.append(epoch_loss / batches)
            accs.append(epoch_hits / len(data))

        where = f"the evaluation after epoch {config.epochs}"
        final_train_acc = evaluate(net, data)
        final_acc = evaluate(net, eval_dataset) if eval_dataset is not None else final_train_acc
        final_loss = 0.0
        for start in range(0, len(data), config.batch):
            logits, _ = net.forward(data.images[start:start + config.batch])
            batch_loss, _ = softmax_cross_entropy(logits, data.labels[start:start + config.batch])
            final_loss += batch_loss * len(logits)
        final_loss /= len(data)
        probe_src = eval_dataset if eval_dataset is not None else data
        probe = probe_src.images[:min(config.batch, len(probe_src))]
        ao_batch = net.offset_fields(probe)
    except NonFiniteError as exc:
        raise DivergenceError(f"{exc} at {where}") from exc
    result = TrainResult(loss=losses, acc=accs, final_loss=float(final_loss),
                         final_acc=final_acc,
                         final_train_acc=final_train_acc,
                         param_count=net.param_count(), ao_batch=ao_batch, net=net)
    if checkpoint_path is not None:
        save_net(net, checkpoint_path, config)
    return result


# -- checkpointing -----------------------------------------------------------


def save_net(net: TinyNet, path, config: TrainConfig | None = None) -> None:
    """Write all parameters into one tensor container plus a JSON sidecar.

    Raises ValueError unless every parameter is float32 (the container's type).
    """
    path = Path(path)
    records: dict[str, Tensor4] = {}
    for prefix, layer in (("ld1.", net.ld1), ("ld2.", net.ld2)):
        for name, tensor in layer_records(layer).items():
            records[prefix + name] = tensor
    classes, feats = net.fc_w.shape
    records["fc.w"] = Tensor4(net.fc_w.reshape(classes, feats, 1, 1))
    records["fc.b"] = Tensor4(net.fc_b.reshape(classes, 1, 1, 1))
    write_tensors(path, records)
    sidecar = {
        "kind": "tinynet",
        "ld1": layer_sidecar(net.ld1),
        "ld2": layer_sidecar(net.ld2),
        "classes": classes,
    }
    if config is not None:
        sidecar["config"] = asdict(config)
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))


def load_net(path, dtype=np.float32) -> tuple[TinyNet, dict]:
    """Rebuild a TinyNet from a container + sidecar; returns (net, sidecar)."""
    path = Path(path)
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    if sidecar.get("kind") != "tinynet":
        raise ValueError(f"{path}: not a network checkpoint")
    records = read_tensors(path)
    dtype = np.dtype(dtype)

    def split(prefix):
        plen = len(prefix)
        return {name[plen:]: tensor for name, tensor in records.items()
                if name.startswith(prefix)}

    ld1 = layer_from_records(split("ld1."), sidecar["ld1"], dtype=dtype)
    ld2 = layer_from_records(split("ld2."), sidecar["ld2"], dtype=dtype)
    classes = int(sidecar["classes"])
    if "fc.w" not in records or "fc.b" not in records:
        raise ValueError(f"{path}: checkpoint missing classifier records")
    feats = records["fc.w"].dims[1]
    fc_w = np.array(records["fc.w"].data, dtype=dtype).reshape(classes, feats)
    fc_b = np.array(records["fc.b"].data, dtype=dtype).reshape(classes)
    return TinyNet(ld1=ld1, ld2=ld2, fc_w=fc_w, fc_b=fc_b), sidecar
