"""Central finite-difference verification of the analytic backward passes.

fd_check is the one harness.  The sampler and layer checks' probe loss is
sum(output * R) for a fixed random R, so the analytic gradient is the backward
pass run with upstream R; their eps=None takes the step for the dtype from
DEFAULT_EPS.  Errors are reported per parameter group as
max|analytic - fd| / max(max|analytic|, max|fd|, eps), i.e. relative to the
group's largest entry, which keeps near-zero elements (whose fd value is pure
roundoff) from dominating.

Test fixtures keep every sampling coordinate at least 0.2 away from integer
lattice points and clamp boundaries (off_lattice_offsets for a layer): the
sampled surface is only piecewise smooth, and a coordinate that crosses a cell
edge between the two half-steps would invalidate the central difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layer import LdconvLayer
from .sampler import SampleGrid, bilinear_backward, bilinear_sample
from .tensor import Rng, Tensor4

DEFAULT_TOL = {np.dtype(np.float64): 1e-6, np.dtype(np.float32): 1e-3}
# Step per dtype and check.  float32 rounding dominates the difference quotient
# at the 64-bit steps; the probe loss is piecewise-polynomial (degree <= 2) in
# any single parameter, so a coarser step adds no truncation error.
DEFAULT_EPS = {np.dtype(np.float64): {"sampler": 1e-3, "layer": 1e-4},
               np.dtype(np.float32): {"sampler": 1e-2, "layer": 1e-2}}


@dataclass(frozen=True)
class GradCheckResult:
    group: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def fd_check(loss, groups: dict[str, tuple[np.ndarray, np.ndarray]], eps: float,
             tol: float) -> list[GradCheckResult]:
    """Central differences of loss() against each group's analytic gradient.

    groups maps a name to (analytic gradient, array); each entry of the array
    in turn is moved by +-eps in place, so loss() must read that array.
    """
    results = []
    for name, (analytic, param) in groups.items():
        fd = np.zeros(param.shape, dtype=np.float64)
        for i in range(param.size):
            keep = param.flat[i]
            param.flat[i] = keep + eps
            plus = loss()
            param.flat[i] = keep - eps
            minus = loss()
            param.flat[i] = keep
            fd.flat[i] = (plus - minus) / (2.0 * eps)
        denom = max(float(np.max(np.abs(analytic), initial=0.0)),
                    float(np.max(np.abs(fd), initial=0.0)), 1e-12)
        err = float(np.max(np.abs(analytic - fd), initial=0.0)) / denom
        results.append(GradCheckResult(name, err, tol))
    return results


def check_sampler_gradients(dims=(2, 3, 6, 6), n: int = 5, seed: int = 0,
                            eps: float | None = None,
                            dtype=np.float64) -> list[GradCheckResult]:
    """Finite-difference suite for bilinear_sample's gradients; needs H, W >= 2."""
    dtype = np.dtype(dtype)
    rng = Rng(seed)
    b_n, c_n, h_in, w_in = dims
    if h_in < 2 or w_in < 2:
        raise ValueError(f"sampler check needs H, W >= 2, got {h_in}x{w_in}")
    h_out, w_out = h_in - 1, w_in - 1
    gen = rng.stream("sampler/fixture")
    x_arr = gen.random(dims).astype(dtype)

    def coords(limit):
        cells = gen.integers(0, limit - 1, size=(b_n, n, h_out, w_out))
        frac = gen.uniform(0.2, 0.8, size=cells.shape)
        vals = cells + frac
        # push a fifth of the coordinates deep past the clamp range
        clamped = gen.random(cells.shape) < 0.2
        sign = np.where(gen.random(cells.shape) < 0.5, -1.0, 1.0)
        deep = np.where(sign < 0, -(0.5 + frac), limit - 1 + 0.5 + frac)
        return np.where(clamped, deep, vals).astype(dtype)

    rows = coords(h_in)
    cols = coords(w_in)
    upstream = gen.uniform(-1.0, 1.0, size=(b_n, c_n, n, h_out, w_out)).astype(dtype)

    def loss():
        grid = SampleGrid(rows=rows, cols=cols)
        return float(np.sum(bilinear_sample(Tensor4(x_arr), grid) * upstream))

    grid = SampleGrid(rows=rows, cols=cols)
    grad_x, grad_rows, grad_cols = bilinear_backward(Tensor4(x_arr), grid, upstream)
    groups = {"sampler/grad_x": (grad_x.data, x_arr), "sampler/grad_rows": (grad_rows, rows),
              "sampler/grad_cols": (grad_cols, cols)}
    return fd_check(loss, groups, DEFAULT_EPS[dtype]["sampler"] if eps is None else eps,
                    DEFAULT_TOL[dtype])


def off_lattice_offsets(layer: LdconvLayer, gen: np.random.Generator) -> None:
    """Offset biases in +-[0.25, 0.45], and offset weights small enough that on
    inputs in [-1, 1] the data-dependent jitter stays below 0.02."""
    mag = gen.uniform(0.25, 0.45, size=2 * layer.n)
    sign = np.where(gen.random(2 * layer.n) < 0.5, -1.0, 1.0)
    layer.offset_b = (mag * sign).astype(layer.dtype)
    jitter = 0.02 / (9.0 * layer.c_in)
    layer.offset_w = gen.uniform(-jitter, jitter,
                                 size=layer.offset_w.shape).astype(layer.dtype)


def _layer_fixture(dims, n: int, seed: int, dtype, post: str, stride: int):
    """Layer with off-lattice offsets, an input in [0, 1) and an upstream."""
    rng = Rng(seed)
    b_n, c_in, h_in, w_in = dims
    c_out = 4
    layer = LdconvLayer.create(n, c_in, c_out, stride=stride, post=post, rng=rng,
                               dtype=dtype, name="gradcheck")
    gen = rng.stream("layer/fixture")
    off_lattice_offsets(layer, gen)
    if layer.agg_b is not None:
        layer.agg_b = gen.uniform(-0.1, 0.1, size=c_out).astype(dtype)
    x_arr = gen.random(dims).astype(dtype)
    y, _ = layer.forward(Tensor4(x_arr))
    upstream = gen.uniform(-1.0, 1.0, size=y.dims).astype(dtype)
    return layer, x_arr, upstream


def check_layer_gradients(dims=(2, 3, 6, 6), n: int = 5, seed: int = 0,
                          eps: float | None = None, dtype=np.float64, post: str = "none",
                          stride: int = 1, sabotage: bool = False) -> list[GradCheckResult]:
    """Finite-difference suite for the layer's input and parameter gradients.

    With sabotage=True the analytic offset-weight gradient is deliberately
    corrupted; the suite must then report a failure (negative control).
    """
    dtype = np.dtype(dtype)
    layer, x_arr, upstream = _layer_fixture(dims, n, seed, dtype, post, stride)

    def loss():
        y, _ = layer.forward(Tensor4(x_arr))
        return float(np.sum(y.data * upstream))

    y, cache = layer.forward(Tensor4(x_arr))
    grads = layer.backward(cache, Tensor4(upstream))
    if sabotage:
        grads.offset_w = grads.offset_w * 1.5 + 1e-3

    groups = {"layer/input": (grads.x.data, x_arr)}
    groups.update({f"layer/{name}": (getattr(grads, name), param)
                   for name, param in layer.params().items()})
    return fd_check(loss, groups, DEFAULT_EPS[dtype]["layer"] if eps is None else eps,
                    DEFAULT_TOL[dtype])
