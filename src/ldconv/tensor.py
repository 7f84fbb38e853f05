"""Dense rank-4 tensors, seeded random streams, and a reference convolution.

Everything downstream moves data around as (batch, channel, height, width)
float arrays.  The reference convolution here is a deliberately plain
direct-summation implementation used as the trusted comparison point for the
deformable operator; it is kept independent of the faster windowed convolution
inside the layer module.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_CONTAINER_MAGIC = b"LDT1"

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ShapeError(ValueError):
    """Dimensions of an argument are inconsistent with the operation."""


@dataclass(frozen=True)
class Rng:
    """Deterministic random source with named, order-independent streams.

    Every stream name is hashed into the key of a counter-based generator, so
    draws from one stream never depend on how much any other stream consumed,
    and the same (seed, stream) pair always yields the identical sequence.
    """

    seed: int

    def stream(self, name: str = "default") -> np.random.Generator:
        digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
        stream_id = int.from_bytes(digest, "little")
        key = (int(self.seed) & _MASK64) | (stream_id << 64)
        return np.random.Generator(np.random.Philox(key=key))


def _validated_dims(dims) -> tuple[int, int, int, int]:
    dims = tuple(int(d) for d in dims)
    if len(dims) != 4:
        raise ShapeError(f"expected 4 dims (B, C, H, W), got {len(dims)}")
    if any(d < 0 for d in dims):
        raise ValueError(f"negative dimension in {dims}")
    return dims


@dataclass(frozen=True)
class Tensor4:
    """Immutable (B, C, H, W) array of 32- or 64-bit floats.

    Storage is row-major with width fastest-varying, so the flat offset of
    element (b, c, h, w) is ((b*C + c)*H + h)*W + w.  Construction from a
    writable array copies it; the held buffer is always marked read-only.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 4:
            raise ShapeError(f"expected rank-4 data, got rank {arr.ndim}")
        if arr.dtype not in FLOAT_DTYPES:
            raise ValueError(f"expected float32/float64 data, got {arr.dtype}")
        arr = np.ascontiguousarray(arr)
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def astype(self, dtype) -> "Tensor4":
        return Tensor4(self.data.astype(dtype))


def _owned(arr: np.ndarray) -> Tensor4:
    # For freshly built arrays we own: mark read-only so Tensor4 skips the copy.
    arr.setflags(write=False)
    return Tensor4(arr)


def rand_uniform(dims, rng: Rng, lo: float = 0.0, hi: float = 1.0,
                 stream: str = "tensor", dtype=np.float32) -> Tensor4:
    """Seed-deterministic uniform tensor with all elements in [lo, hi)."""
    if not lo < hi:
        raise ValueError(f"invalid range: lo={lo} must be < hi={hi}")
    dims = _validated_dims(dims)
    gen = rng.stream(stream)
    unit = gen.random(dims, dtype=np.dtype(dtype))
    out = (np.dtype(dtype).type(lo) + (np.dtype(dtype).type(hi - lo)) * unit)
    # Rounding of lo + (hi-lo)*u can land exactly on hi; keep the interval open.
    top = np.nextafter(np.dtype(dtype).type(hi), np.dtype(dtype).type(lo))
    np.minimum(out, top, out=out)
    return _owned(out)


def pad2d(arr: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two trailing (spatial) axes symmetrically."""
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    if pad == 0:
        return arr
    *lead, h, w = arr.shape
    out = np.zeros((*lead, h + 2 * pad, w + 2 * pad), dtype=arr.dtype)
    out[..., pad:pad + h, pad:pad + w] = arr
    return out


def conv2d_reference(x: Tensor4, weights, bias=None, stride: int = 1,
                     pad: int = 0) -> Tensor4:
    """Direct-summation 2-D cross-correlation used as the oracle.

    output(b, o, i, j) = bias_o + sum_{c,dh,dw} w[o,c,dh,dw] *
                         x_padded(b, c, i*stride + dh, j*stride + dw)

    The window for output (i, j) starts at (i*stride, j*stride) on the padded
    map, as the deformable layer anchors its kernel.  No kernel flip is applied.
    """
    w = np.asarray(weights)
    if w.ndim != 4:
        raise ShapeError(f"expected rank-4 weights, got rank {w.ndim}")
    b_n, c_in, h_in, w_in = x.dims
    c_out, wc_in, k_h, k_w = w.shape
    if wc_in != c_in:
        raise ShapeError(f"weight c_in {wc_in} != input channels {c_in}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")

    h_out = (h_in + 2 * pad - k_h) // stride + 1
    w_out = (w_in + 2 * pad - k_w) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"kernel {k_h}x{k_w} does not fit input {h_in}x{w_in} with pad {pad}")

    xp = pad2d(x.data, pad)
    acc = np.zeros((b_n, c_out, h_out, w_out), dtype=np.float64)
    for o in range(c_out):
        for c in range(c_in):
            for dh in range(k_h):
                for dw in range(k_w):
                    window = xp[:, c,
                                dh:dh + (h_out - 1) * stride + 1:stride,
                                dw:dw + (w_out - 1) * stride + 1:stride]
                    acc[:, o] += float(w[o, c, dh, dw]) * window
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (c_out,):
            raise ShapeError(f"bias shape {bias.shape} != ({c_out},)")
        acc += bias[None, :, None, None]
    return _owned(acc.astype(x.dtype))


# ---------------------------------------------------------------------------
# Binary tensor container: magic "LDT1", then per record a u16 LE name length,
# the UTF-8 name, u32 LE rank (always 4), four u32 LE dims and the payload as
# little-endian float32.


def write_tensors(path, tensors: dict[str, Tensor4]) -> None:
    """Write records to an LDT1 container; only float32 tensors are accepted."""
    for name, tensor in tensors.items():
        if not isinstance(tensor, Tensor4):
            raise TypeError(f"record {name!r} is not a Tensor4")
        if tensor.dtype != np.float32:
            raise ValueError(f"record {name!r} is {tensor.dtype}; LDT1 stores float32 only")
    with open(path, "wb") as fh:
        fh.write(_CONTAINER_MAGIC)
        for name, tensor in tensors.items():
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValueError(f"record name too long: {len(encoded)} bytes")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", 4))
            fh.write(struct.pack("<4I", *tensor.dims))
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())


def read_tensors(path) -> dict[str, Tensor4]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CONTAINER_MAGIC:
        raise ValueError(f"bad container magic {blob[:4]!r}")
    out: dict[str, Tensor4] = {}
    offset = 4
    while offset < len(blob):
        if offset + 2 > len(blob):
            raise ValueError("truncated container: incomplete record header")
        (name_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        if offset + name_len + 4 > len(blob):
            raise ValueError("truncated container: incomplete record name")
        name = blob[offset:offset + name_len].decode("utf-8")
        shown = repr(name[:40]) + ("..." if len(name) > 40 else "")   # errors stay short
        offset += name_len
        (rank,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if rank != 4:
            raise ValueError(f"record {shown} has rank {rank}, expected 4")
        if offset + 16 > len(blob):
            raise ValueError("truncated container: incomplete dims")
        dims = struct.unpack_from("<4I", blob, offset)
        offset += 16
        count = math.prod(dims)
        nbytes = count * 4
        if offset + nbytes > len(blob):
            raise ValueError(f"truncated container: record {shown} payload")
        data = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        offset += nbytes
        out[name] = _owned(data.astype(np.float32).reshape(dims))
    return out
