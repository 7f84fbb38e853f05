"""Minimal training harness: a two-layer deformable net on 28x28 grayscale.

The network is [deformable 1->8 stride 2, deformable 8->16 stride 2, global
average pool, linear 16->10]; each deformable layer applies its own
normalise-and-gate stage (x * sigmoid(x)) by default.  Optimisation is plain
SGD on softmax cross-entropy.  Data comes either from IDX files on disk or
from a built-in synthetic generator of axis-aligned bar images.
"""

from __future__ import annotations

import json
import math
import reprlib
import struct
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .layer import (LdconvLayer, NonFiniteError, OffsetField, layer_from_sidecar,
                    layer_sidecar, sidecar_int)
from .tensor import Rng, Tensor4, _owned, read_tensors, write_tensors

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

NUM_CLASSES = 10


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or offset field, or a step
    overflowed or made an invalid floating-point operation."""


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
        if count < 0:
            raise ValueError(f"subset must be >= 0, got {count}")
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
    count = math.prod(dims)
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
    def create(cls, n1: int = 5, n2: int = 5, post: str = "normalize+activation",
               rng: Rng | None = None, geometry=None) -> "TinyNet":
        """A float32 net, geometry (if given) both layers' initial shape; astype casts it."""
        rng = rng if rng is not None else Rng(0)
        ld1 = LdconvLayer.create(n1, 1, 8, stride=2, post=post, rng=rng, name="ld1",
                                 geometry=geometry)
        ld2 = LdconvLayer.create(n2, 8, 16, stride=2, post=post, rng=rng, name="ld2",
                                 geometry=geometry)
        bound = float(np.sqrt(1.0 / 16))
        fc_w = rng.stream("fc/w").uniform(-bound, bound,
                                          size=(NUM_CLASSES, 16)).astype(np.float32)
        return cls(ld1=ld1, ld2=ld2, fc_w=fc_w,
                   fc_b=np.zeros(NUM_CLASSES, dtype=np.float32))

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
        g2 = self.ld2.backward(cache["cache2"], _owned(dpool))
        # the images need no gradient, so ld1 skips its input gradient
        g1 = self.ld1.backward(cache["cache1"], g2.x, input_grad=False)
        for prefix, layer, layer_grads in (("ld2.", self.ld2, g2), ("ld1.", self.ld1, g1)):
            grads.update({prefix + name: getattr(layer_grads, name) for name in layer.params()})
        return grads

    def offset_fields(self, images: np.ndarray) -> dict[str, OffsetField]:
        """Offset fields of both deformable layers on the given batch.

        ld1 runs its full forward to produce ld2's input; ld2 stops at its
        offset conv."""
        x = Tensor4(np.ascontiguousarray(images, dtype=self.dtype))
        h1, cache1 = self.ld1.forward(x)
        return {"ld1": cache1.offsets, "ld2": self.ld2.offsets(h1)}


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


def evaluate(net: TinyNet, dataset: Dataset, batch: int) -> tuple[float, float]:
    """(accuracy, per-image mean loss) in one pass of `batch` images; argmax
    ties resolve to the lowest class.  The post stage normalises with batch
    statistics, so both depend on `batch`: pass the one the net trained at."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    hits, loss = 0, 0.0
    for start in range(0, len(dataset), batch):
        labels = dataset.labels[start:start + batch]
        logits = net.forward(dataset.images[start:start + batch])[0]   # drop the cache now
        hits += int((np.argmax(logits, axis=1) == labels).sum())
        loss += softmax_cross_entropy(logits, labels)[0] * len(labels)
    return hits / len(dataset), loss / len(dataset)


# -- config / loop -----------------------------------------------------------


# the values each TrainConfig annotation accepts; a bool passes for no field
_CONFIG_TYPES = {"int": int, "float": (int, float), "str": str, "str | None": (str, type(None))}


@dataclass
class TrainConfig:
    n1: int = 5
    n2: int = 5
    epochs: int = 10
    batch: int = 32
    lr: float = 0.05
    seed: int = 0
    subset: int = 2048
    data_dir: str | None = None
    eval_subset: int = 512
    post: str = "normalize+activation"

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[field.type]):
                raise ValueError(f"config key {field.name!r} must be {field.type}, "
                                 f"got {reprlib.repr(value)}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if not 0 <= self.lr <= sys.float_info.max:   # exact for ints too; nan fails
            raise ValueError(f"lr must be finite and >= 0, got {reprlib.repr(self.lr)}")
        if self.subset < 1:
            raise ValueError(f"subset must be >= 1, got {self.subset}")
        if self.eval_subset < 1:
            raise ValueError(f"eval_subset must be >= 1, got {self.eval_subset}")

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {reprlib.repr(sorted(unknown))}")
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

    def metrics(self, ao_summaries: dict | None = None) -> dict:
        return {"loss": self.loss, "acc": self.acc,
                "final_loss": self.final_loss, "final_acc": self.final_acc,
                "final_train_acc": self.final_train_acc,
                "param_count": self.param_count, "ao": ao_summaries or {}}


def train(net: TinyNet, dataset: Dataset, config: TrainConfig,
          eval_dataset: Dataset | None = None) -> TrainResult:
    """SGD loop; returns per-epoch curves and the offset fields of one batch.

    The final metrics are one evaluate pass per dataset at config.batch:
    final_train_acc and final_loss on the training subset, final_acc on
    eval_dataset if given (else final_train_acc).  Raises DivergenceError,
    naming the epoch and batch, as soon as a batch loss or an offset field is
    non-finite or an operation overflows or is invalid; that trap reads only
    this thread's floating-point flags, not those of BLAS worker threads.
    """
    data = dataset.take(config.subset)
    rng = Rng(config.seed)
    losses: list[float] = []
    accs: list[float] = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(config.epochs):
                order = rng.stream(f"shuffle/{epoch:05d}").permutation(len(data))
                epoch_loss = 0.0
                epoch_hits = 0
                for batches, start in enumerate(range(0, len(data), config.batch), start=1):
                    where = f"epoch {epoch + 1}, batch {batches}"
                    take = order[start:start + config.batch]
                    images = data.images[take]
                    images.setflags(write=False)   # fresh and ours: Tensor4 keeps it without a copy
                    logits, cache = net.forward(images)
                    loss, dlogits = softmax_cross_entropy(logits, data.labels[take])
                    if not np.isfinite(loss):
                        raise DivergenceError(f"non-finite loss at {where}")
                    grads = net.backward(cache, dlogits)
                    del cache   # else it lives through the next forward
                    params = net.params()
                    for name, grad in grads.items():
                        params[name] -= np.asarray(config.lr * grad, dtype=net.dtype)
                    epoch_loss += loss
                    epoch_hits += int((np.argmax(logits, axis=1) == data.labels[take]).sum())
                losses.append(epoch_loss / batches)
                accs.append(epoch_hits / len(data))

            where = f"the evaluation after epoch {config.epochs}"
            final_train_acc, final_loss = evaluate(net, data, config.batch)
            final_acc = (evaluate(net, eval_dataset, config.batch)[0]
                         if eval_dataset is not None else final_train_acc)
            probe_src = eval_dataset if eval_dataset is not None else data
            probe = probe_src.images[:min(config.batch, len(probe_src))]
            ao_batch = net.offset_fields(probe)
    except (NonFiniteError, FloatingPointError) as exc:
        raise DivergenceError(f"{exc} at {where}") from exc
    return TrainResult(loss=losses, acc=accs, final_loss=final_loss,
                       final_acc=final_acc, final_train_acc=final_train_acc,
                       param_count=net.param_count(), ao_batch=ao_batch)


# -- checkpointing -----------------------------------------------------------


def save_net(net: TinyNet, path, config: TrainConfig | None = None) -> None:
    """Write one record per params() entry into a tensor container, plus a
    JSON sidecar holding the structure.

    Records are rank 4, so vectors get trailing singleton axes.  Raises
    ValueError unless every parameter is float32 (the container's type).
    """
    path = Path(path)
    write_tensors(path, {name: Tensor4(arr.reshape(arr.shape + (1,) * (4 - arr.ndim)))
                         for name, arr in net.params().items()})
    sidecar = {
        "kind": "tinynet",
        "ld1": layer_sidecar(net.ld1),
        "ld2": layer_sidecar(net.ld2),
        "classes": net.fc_w.shape[0],
    }
    if config is not None:
        sidecar["config"] = asdict(config)
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))


def load_net(path) -> tuple[TinyNet, dict]:
    """Rebuild a float32 TinyNet from a container + sidecar; returns (net, sidecar).

    The sidecar fixes the structure, the classifier included; every params()
    entry is then filled from the record of the same name.  A sidecar key or a
    record that is missing or disagrees with the structure raises ValueError,
    the records' dims before the sidecar's integers size any array.
    """
    path = Path(path)
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    if not isinstance(sidecar, dict):
        raise ValueError(f"{path}: sidecar is not a JSON object")
    if sidecar.get("kind") != "tinynet":
        raise ValueError(f"{path}: not a network checkpoint")
    records = read_tensors(path)

    def check(name, dims):
        if name not in records:
            raise ValueError(f"checkpoint missing record {name!r}")
        if records[name].dims != dims:
            raise ValueError(f"record {name!r} has dims {records[name].dims}, "
                             f"the sidecar's structure needs {dims}")
    try:
        for key in ("ld1", "ld2"):
            if not isinstance(sidecar[key], dict):
                raise ValueError(f"sidecar entry {key!r} is not a JSON object")
        # agg_w and fc.w hold every integer that sizes an array, so they go first
        first = {key + ".agg_w": (*(sidecar_int(sidecar[key], k)
                                    for k in ("c_out", "c_in", "n")), 1) for key in ("ld1", "ld2")}
        first["fc.w"] = (sidecar_int(sidecar, "classes"), first["ld2.agg_w"][0], 1, 1)
        for name, dims in first.items():
            check(name, dims)
        classes = first["fc.w"][0]
        ld1, ld2 = (layer_from_sidecar(sidecar[key]) for key in ("ld1", "ld2"))
        net = TinyNet(ld1=ld1, ld2=ld2,
                      fc_w=np.zeros((classes, ld2.c_out), dtype=np.float32),
                      fc_b=np.zeros(classes, dtype=np.float32))
        for name, arr in net.params().items():
            check(name, arr.shape + (1,) * (4 - arr.ndim))
            arr[...] = records[name].data.reshape(arr.shape)
    except KeyError as exc:
        raise ValueError(f"{path}: sidecar has no key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return net, sidecar
