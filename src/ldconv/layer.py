"""Deformable convolution layer with arbitrary kernel size.

Pipeline per forward call: predict a per-position offset field with a small
3x3 convolution (zero-initialised so training starts from the undeformed
kernel), add the offsets to the initial kernel coordinates anchored at each
strided output position, bilinearly sample the input there, and mix the n
sampled maps into the output channels with weights stored canonically as
(c_out, c_in, n).  Parameters and compute therefore grow linearly in n instead
of quadratically in a side length.  A padded layer is tensor.pad2d ahead of it.

Both linear maps are one GEMM each.  The offset conv multiplies the flattened
3x3 weights with a channel-major window matrix of the input; the channel mix
stacks the samples to c_in*n channels (channel k = c*n + m) and applies a 1x1
mix.  The paper's other two layouts of the mix (a depth reduction over the
length-n axis, and width stacking followed by a (1, n) window of stride n)
compute the same map; the tests check them against this one.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .geometry import KernelGeometry, base_grid, gen_initial_coords
from .sampler import SampleGrid, _blocks, bilinear_backward, bilinear_sample
from .tensor import Rng, ShapeError, Tensor4, _owned, pad2d

STRATEGIES = ("conv3d-style", "channel-stack-1x1", "column-conv")
POST_MODES = ("none", "normalize+activation")

_NORM_EPS = 1e-5


class NonFiniteError(ValueError):
    """An array that must be finite holds inf or nan."""


@dataclass(frozen=True)
class OffsetField:
    """Predicted offsets (B, 2n, H_out, W_out): n row channels then n col channels."""

    n: int
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 4:
            raise ShapeError(f"offset field must be rank 4, got rank {arr.ndim}")
        if arr.shape[1] != 2 * self.n:
            raise ShapeError(f"offset field has {arr.shape[1]} channels, expected {2 * self.n}")
        if not np.isfinite(arr).all():
            raise NonFiniteError("offset field holds non-finite values")
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "data", arr)


@dataclass
class LayerCache:
    """Values forward keeps for the manual backward, which rebuilds from them
    with the layer's current parameters the post stage's activations (sampled,
    post_cache's per-channel mean and inv_std) and each image block's windows."""

    x: Tensor4
    offsets: OffsetField
    grid: SampleGrid
    sampled: np.ndarray
    post_cache: dict | None


@dataclass
class LayerGrads:
    x: Tensor4 | None             # None when backward ran with input_grad=False
    offset_w: np.ndarray
    offset_b: np.ndarray
    agg_w: np.ndarray
    agg_b: np.ndarray | None
    post_scale: np.ndarray | None = None
    post_shift: np.ndarray | None = None


@dataclass
class LdconvLayer:
    """n-point deformable convolution: c_in -> c_out feature maps."""

    n: int
    c_in: int
    c_out: int
    stride: int
    geometry: KernelGeometry
    offset_w: np.ndarray          # (2n, c_in, 3, 3)
    offset_b: np.ndarray          # (2n,)
    agg_w: np.ndarray             # (c_out, c_in, n)
    agg_b: np.ndarray | None      # (c_out,) without the post stage, else None
    # one of STRATEGIES, a layout label that selects no code; its only reader is
    # perfbench StressLayer.checks' dataclasses.replace(layer, strategy=s)
    strategy: str = "channel-stack-1x1"
    post: str = "none"
    post_scale: np.ndarray | None = None
    post_shift: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"kernel size must be >= 1, got {self.n}")
        if self.c_in < 1 or self.c_out < 1:
            raise ValueError("channel counts must be >= 1")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, options: {STRATEGIES}")
        if self.post not in POST_MODES:
            raise ValueError(f"unknown post mode {reprlib.repr(self.post)}, options: {POST_MODES}")
        if self.geometry.n != self.n:
            raise ShapeError(f"geometry has {self.geometry.n} points, layer expects {self.n}")
        if self.offset_w.shape != (2 * self.n, self.c_in, 3, 3):
            raise ShapeError(f"offset_w shape {self.offset_w.shape}")
        if self.offset_b.shape != (2 * self.n,):
            raise ShapeError(f"offset_b shape {self.offset_b.shape}")
        if self.agg_w.shape != (self.c_out, self.c_in, self.n):
            raise ShapeError(f"agg_w shape {self.agg_w.shape}")
        with_post = self.post == "normalize+activation"
        if (self.agg_b is None) != with_post:
            raise ValueError("an aggregation bias exists iff there is no post stage")
        if self.agg_b is not None and self.agg_b.shape != (self.c_out,):
            raise ShapeError(f"agg_b shape {self.agg_b.shape}")
        if with_post and (self.post_scale is None or self.post_shift is None):
            raise ValueError("post stage enabled but scale/shift missing")

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, n: int, c_in: int, c_out: int, *, stride: int = 1, post: str = "none",
               geometry: KernelGeometry | None = None, rng: Rng | None = None,
               dtype=np.float32, name: str = "ldconv") -> "LdconvLayer":
        """Build a layer with zero offsets and fan-in-scaled mixing weights.

        When the post stage is enabled the aggregation bias is dropped: the
        normalisation subtracts any per-channel constant, so the learned shift
        takes over and the bias would receive an identically-zero gradient.
        """
        if geometry is None:
            geometry = gen_initial_coords(n)
        rng = rng if rng is not None else Rng(0)
        dtype = np.dtype(dtype)
        if c_in < 1:   # before the fan-in bound divides by it
            raise ValueError("channel counts must be >= 1")
        bound = float(np.sqrt(1.0 / (c_in * n)))
        agg_w = rng.stream(f"{name}/agg_w").uniform(-bound, bound,
                                                    size=(c_out, c_in, n)).astype(dtype)
        with_post = post == "normalize+activation"
        return cls(
            n=n, c_in=c_in, c_out=c_out, stride=stride, geometry=geometry,
            offset_w=np.zeros((2 * n, c_in, 3, 3), dtype=dtype),
            offset_b=np.zeros(2 * n, dtype=dtype),
            agg_w=agg_w,
            agg_b=None if with_post else np.zeros(c_out, dtype=dtype),
            post=post,
            post_scale=np.ones(c_out, dtype=dtype) if with_post else None,
            post_shift=np.zeros(c_out, dtype=dtype) if with_post else None,
        )

    @property
    def dtype(self):
        return self.agg_w.dtype

    def params(self, prefix: str = "") -> dict[str, np.ndarray]:
        """The learnable arrays by field name: the one list of which groups exist.

        Checkpoints, dtype casts, gradients, audits and the gradient check all
        iterate it.  The aggregation bias exists only without the post stage,
        scale and shift only with it.
        """
        names = ["offset_w", "offset_b", "agg_w"]
        names += ["post_scale", "post_shift"] if self.post == "normalize+activation" else ["agg_b"]
        return {prefix + name: getattr(self, name) for name in names}

    def astype(self, dtype) -> "LdconvLayer":
        return replace(self, **{name: arr.astype(dtype) for name, arr in self.params().items()})

    # -- audits --------------------------------------------------------------

    def param_count(self) -> int:
        """Learnable scalar count: 2n*c_in*9 + 2n + c_out*c_in*n, plus c_out
        for the bias without the post stage or 2*c_out for the normalisation
        scale and shift with it; neither addition depends on n.
        """
        return sum(int(arr.size) for arr in self.params().values())

    def flops_estimate(self, h_in: int, w_in: int) -> int:
        """Single-image multiply-accumulate estimate at the given input extent.

        offset conv:  2n * c_in * 9 * h_out * w_out
        sampling:     8 * c_in * n * h_out * w_out   (4 products + 4 adds each)
        channel mix:  c_out * c_in * n * h_out * w_out
        """
        grid = base_grid(h_in, w_in, stride=self.stride)
        cells = grid.h_out * grid.w_out
        offset_macs = 2 * self.n * self.c_in * 9 * cells
        sample_ops = 8 * self.c_in * self.n * cells
        mix_macs = self.c_out * self.c_in * self.n * cells
        return offset_macs + sample_ops + mix_macs

    # -- forward pieces ------------------------------------------------------

    def _taps(self, x: np.ndarray, h_out: int, w_out: int) -> np.ndarray:
        """View (B, c_in, 3, 3, h_out, w_out) of x zero-padded by 1: each output's 3x3 window."""
        xp = pad2d(x, 1)
        sb, sc, sh, sw = xp.strides
        return as_strided(xp, (*xp.shape[:2], 3, 3, h_out, w_out),
                          (sb, sc, sh, sw, sh * self.stride, sw * self.stride), writeable=False)

    def _windows(self, x: np.ndarray, h_out: int, w_out: int) -> np.ndarray:
        """Window matrix (B, c_in*9, h_out*w_out) of the 3x3 offset conv.

        The conv zero-pads x by 1, so before the stride it has one output per
        input position.  Row c*9 + kh*3 + kw is channel c at tap (kh, kw),
        matching offset_w.reshape(2n, c_in*9).  A copy of _taps, it holds nine
        copies of the input, so callers free it right after its GEMM.
        """
        return np.ascontiguousarray(self._taps(x, h_out, w_out)).reshape(len(x), -1, h_out * w_out)

    def offsets(self, x: Tensor4) -> OffsetField:
        """Offset field predicted for x: the offset conv alone, one GEMM over
        the window matrix, without sampling or mixing."""
        self._check_input(x)
        b_n, _, h_in, w_in = x.dims
        out = base_grid(h_in, w_in, stride=self.stride)
        field = self.offset_w.reshape(2 * self.n, -1) @ self._windows(x.data, out.h_out, out.w_out)
        field += self.offset_b[:, None]
        field = field.reshape(b_n, 2 * self.n, out.h_out, out.w_out).astype(x.dtype, copy=False)
        field.setflags(write=False)   # fresh and ours: OffsetField keeps it without a copy
        return OffsetField(n=self.n, data=field)

    def assemble_grid(self, offsets: OffsetField) -> SampleGrid:
        """Base anchors + initial coordinates + predicted offsets."""
        if offsets.n != self.n:
            raise ShapeError(f"offset field n={offsets.n}, layer n={self.n}")
        b_n, _, h_out, w_out = offsets.data.shape
        dtype = offsets.data.dtype
        row_anchor = (np.arange(h_out, dtype=dtype) * dtype.type(self.stride))
        col_anchor = (np.arange(w_out, dtype=dtype) * dtype.type(self.stride))
        rows = offsets.data[:, :self.n] + self.geometry.rows().astype(dtype)[None, :, None, None]
        rows += row_anchor[None, None, :, None]
        cols = offsets.data[:, self.n:] + self.geometry.cols().astype(dtype)[None, :, None, None]
        cols += col_anchor[None, None, None, :]
        rows.setflags(write=False)    # fresh and ours: SampleGrid keeps them without a copy
        cols.setflags(write=False)
        return SampleGrid(rows=rows, cols=cols)

    def aggregate(self, sampled: np.ndarray) -> np.ndarray:
        """Mix (B, c_in, n, H, W) samples into (B, c_out, H, W) outputs."""
        sampled = np.asarray(sampled)
        if sampled.ndim != 5 or sampled.shape[1] != self.c_in or sampled.shape[2] != self.n:
            raise ShapeError(f"sampled shape {sampled.shape} incompatible with layer")
        b_n, _, _, h_out, w_out = sampled.shape
        stacked = sampled.reshape(b_n, self.c_in * self.n, h_out * w_out)
        out = self.agg_w.reshape(self.c_out, self.c_in * self.n) @ stacked
        out = out.reshape(b_n, self.c_out, h_out, w_out).astype(sampled.dtype, copy=False)
        if self.agg_b is not None:
            out += self.agg_b[None, :, None, None]
        return out

    def _post_forward(self, mixed: np.ndarray):
        """Per-channel normalisation over (B, H, W) plus x*sigmoid(x); centres mixed in place."""
        dtype = mixed.dtype
        # np.var's own steps, on the centred mix that xhat then reuses
        mean = mixed.mean(axis=(0, 2, 3), keepdims=True)
        xhat = mixed
        xhat -= mean
        var = np.square(xhat).sum(axis=(0, 2, 3), keepdims=True)
        var /= np.intp(xhat.size // xhat.shape[1])    # np.var divides by an intp count
        inv_std = 1.0 / np.sqrt(var + dtype.type(_NORM_EPS))
        xhat *= inv_std
        z, sig = self._scale_shift_sigmoid(xhat)
        z *= sig                           # y, in z's buffer
        return z.astype(dtype, copy=False), {"mean": mean, "inv_std": inv_std}

    def _scale_shift_sigmoid(self, xhat: np.ndarray):
        """z = scale*xhat + shift and sigmoid(z), one sequence for both directions."""
        z = self.post_scale[None, :, None, None] * xhat
        z += self.post_shift[None, :, None, None]
        sig = np.negative(z)
        np.exp(sig, out=sig)
        sig += 1.0
        np.divide(1.0, sig, out=sig)
        return z, sig

    def _post_backward(self, cache: LayerCache, upstream: np.ndarray):
        inv_std = cache.post_cache["inv_std"]
        # the forward's own mix and normalisation on the same samples: the same bits
        xhat = self.aggregate(cache.sampled)
        xhat -= cache.post_cache["mean"]
        xhat *= inv_std
        z, sig = self._scale_shift_sigmoid(xhat)
        dz = 1.0 - sig                     # dz = upstream * sig * (1 + z * (1 - sig))
        dz *= z
        dz += 1.0
        dz *= sig
        dz *= upstream
        del z, sig
        grad_shift = dz.sum(axis=(0, 2, 3))
        grad_scale = np.einsum("bchw,bchw->c", dz, xhat)
        # dxhat = scale * dz, so its sums are scale times these two
        m = dz.shape[0] * dz.shape[2] * dz.shape[3]
        dz -= grad_shift[None, :, None, None] / m
        dz -= xhat * (grad_scale[None, :, None, None] / m)
        dz *= self.post_scale[None, :, None, None] * inv_std
        return dz.astype(upstream.dtype, copy=False), grad_scale, grad_shift

    def _check_input(self, x: Tensor4):
        if not isinstance(x, Tensor4):
            raise TypeError("layer input must be a Tensor4")
        if x.dims[1] != self.c_in:
            raise ShapeError(f"input has {x.dims[1]} channels, layer expects {self.c_in}")
        if min(x.dims[0], x.dims[2], x.dims[3]) < 1:
            raise ShapeError(f"input batch {x.dims[0]}, extent {x.dims[2]}x{x.dims[3]} is empty")
        if x.dtype != self.dtype:
            raise ValueError(f"input dtype {x.dtype} != layer dtype {self.dtype}")

    def forward(self, x: Tensor4) -> tuple[Tensor4, LayerCache]:
        offsets = self.offsets(x)
        grid = self.assemble_grid(offsets)
        sampled = bilinear_sample(x, grid)
        y = self.aggregate(sampled)
        post_cache = None
        if self.post == "normalize+activation":
            y, post_cache = self._post_forward(y)
        cache = LayerCache(x=x, offsets=offsets, grid=grid,
                           sampled=sampled, post_cache=post_cache)
        return _owned(y), cache

    # -- backward ------------------------------------------------------------

    def backward(self, cache: LayerCache, upstream: Tensor4, *,
                 input_grad: bool = True) -> LayerGrads:
        """Gradients of sum(upstream * forward(x)) for input and all parameters.

        The post stage and the mix weights' gradient take the whole batch, the
        rest one sampler block at a time, keeping every batch sum's order.
        With input_grad=False the input gradient is not computed and grads.x
        is None, for a first layer whose input needs none; every parameter
        gradient is the same either way.  It reads the layer's current
        parameters, so it runs before they change.
        """
        up = upstream.data if isinstance(upstream, Tensor4) else np.asarray(upstream)
        out_shape = (cache.grid.dims[0], self.c_out) + cache.grid.dims[2:]
        if up.shape != out_shape:
            raise ShapeError(f"upstream shape {up.shape} != output shape {out_shape}")
        up = up.astype(self.dtype, copy=False)

        grad_scale = grad_shift = None
        if self.post == "normalize+activation":
            up, grad_scale, grad_shift = self._post_backward(cache, up)

        b_n, _, h_out, w_out = up.shape
        cells = h_out * w_out

        # channel mix: the forward GEMM's two gradients on the same reshapes
        up3 = up.reshape(b_n, self.c_out, cells)
        stacked = cache.sampled.reshape(b_n, self.c_in * self.n, cells)
        w_mix = self.agg_w.reshape(self.c_out, self.c_in * self.n)
        grad_agg_w = (up3 @ stacked.transpose(0, 2, 1)).sum(axis=0) \
            .reshape(self.agg_w.shape).astype(self.dtype, copy=False)
        grad_agg_b = up.sum(axis=(0, 2, 3)) if self.agg_b is not None else None

        x_arr, (h_in, w_in), n, s = cache.x.data, cache.x.dims[2:], self.n, self.stride
        # tap-major weights give the windows' gradient as one contiguous slab per col2im add
        w_taps = self.offset_w.transpose(0, 2, 3, 1).reshape(2 * n, -1)
        spots = [np.s_[..., kh:kh + (h_out - 1) * s + 1:s, kw:kw + (w_out - 1) * s + 1:s]
                 for kh in range(3) for kw in range(3)]
        grad_field = field_windows = grad_x = taps = None
        for blk in _blocks(x_arr, cache.grid)[2]:
            gx, grad_rows, grad_cols = bilinear_backward(
                Tensor4(x_arr[blk]), cache.grid.images(blk),
                (w_mix.T @ up3[blk]).reshape(-1, *cache.sampled.shape[1:]), input_grad=input_grad)
            if taps is None:            # only now: a one-block batch peaks inside that call
                grad_field = np.empty((b_n, 2 * n, cells), dtype=self.dtype)
                field_windows = np.empty((b_n, 2 * n, self.c_in * 9), dtype=self.dtype)
                grad_x = np.empty_like(x_arr) if input_grad else None
                taps = self._taps(x_arr, h_out, w_out)      # a view of one padded copy of x
            # grid -> offset field (anchors, initial coordinates constant); offset conv gradients
            grad_field[blk, :n] = grad_rows.reshape(-1, n, cells)
            grad_field[blk, n:] = grad_cols.reshape(-1, n, cells)
            np.matmul(grad_field[blk], np.ascontiguousarray(taps[blk]).reshape(
                -1, self.c_in * 9, cells).transpose(0, 2, 1), out=field_windows[blk])
            if input_grad:
                grad_windows = (w_taps.T @ grad_field[blk]).reshape(-1, 9, self.c_in, h_out, w_out)
                grad_xpp = np.zeros(gx.dims[:2] + (h_in + 2, w_in + 2), dtype=x_arr.dtype)
                for k, spot in enumerate(spots):
                    np.add(grad_xpp[spot], grad_windows[:, k], out=grad_xpp[spot])
                np.add(gx.data, grad_xpp[:, :, 1:-1, 1:-1], out=grad_x[blk])
                del grad_windows, grad_xpp      # before the next block's sampler call
        return LayerGrads(x=_owned(grad_x) if input_grad else None,
                          offset_w=field_windows.sum(axis=0).reshape(self.offset_w.shape),
                          offset_b=grad_field.sum(axis=(0, 2)), agg_w=grad_agg_w,
                          agg_b=grad_agg_b, post_scale=grad_scale, post_shift=grad_shift)


# ---------------------------------------------------------------------------
# Checkpoint structure: the JSON sidecar that describes a layer.  The
# parameters themselves are records of the network's container.


def layer_sidecar(layer: LdconvLayer) -> dict:
    sidecar = {
        "n": layer.n, "c_in": layer.c_in, "c_out": layer.c_out,
        "stride": layer.stride, "padding": 0, "post": layer.post,
    }
    if layer.geometry != gen_initial_coords(layer.n):
        # the points themselves, so loading needs no file and no working directory
        sidecar["coords"] = [list(pair) for pair in layer.geometry.coords]
    return sidecar


# Most stride a sidecar may give.  No record's dims hold it.
MAX_SIDECAR_STRIDE = 64


def sidecar_int(sidecar: dict, key: str) -> int:
    """sidecar[key], which must be a JSON integer; ValueError naming the key."""
    if isinstance(sidecar[key], bool) or not isinstance(sidecar[key], int):
        raise ValueError(f"sidecar key {key!r} is not an integer: {sidecar[key]!r}")
    return sidecar[key]


def layer_from_sidecar(sidecar: dict) -> LdconvLayer:
    """Float32 layer of the structure the sidecar describes, its parameters
    freshly initialised: the caller fills every params() entry.  Keys it does
    not read, such as the layout label of older sidecars, are ignored."""
    geometry = None
    if "coords" in sidecar:
        coords = sidecar["coords"]
        if not (isinstance(coords, list) and coords and all(
                isinstance(pair, list) and list(map(type, pair)) == [int, int] for pair in coords)):
            raise ValueError(f"sidecar key 'coords' is not a non-empty list of integer pairs: "
                             f"{coords!r}")
        geometry = KernelGeometry(tuple(map(tuple, coords)))
    elif sidecar.get("shape_file"):
        raise ValueError(f"sidecar names shape file {sidecar['shape_file']!r} but records "
                         "no coords, so the kernel geometry cannot be restored")
    n, c_in, c_out, stride, padding = (sidecar_int(sidecar, key) for key in
                                       ("n", "c_in", "c_out", "stride", "padding"))
    if stride > MAX_SIDECAR_STRIDE:
        raise ValueError(f"sidecar key 'stride' is {stride}, above {MAX_SIDECAR_STRIDE}")
    if padding != 0:   # the layer has no padding; the format keeps the key at 0
        raise ValueError(f"sidecar key 'padding' is {padding}, not 0")
    return LdconvLayer.create(n, c_in, c_out, stride=stride, post=sidecar["post"], geometry=geometry)
