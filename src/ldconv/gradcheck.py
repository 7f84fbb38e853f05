"""Central finite-difference verification of the analytic backward passes.

The scalar probe loss is sum(output * R) for a fixed random R, so the analytic
gradient is simply the backward pass run with upstream R.  Errors are reported
per parameter group as max|analytic - fd| / max(max|analytic|, max|fd|, eps),
i.e. relative to the group's largest entry, which keeps near-zero elements
(whose fd value is pure roundoff) from dominating.

Test fixtures keep every sampling coordinate at least 0.2 away from integer
lattice points and clamp boundaries: the sampled surface is only piecewise
smooth, and a coordinate that crosses a cell edge between the two half-steps
would invalidate the central difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layer import LdconvLayer
from .sampler import SampleGrid, bilinear_backward, bilinear_sample
from .tensor import Rng, Tensor4

DEFAULT_TOL = {np.dtype(np.float64): 1e-6, np.dtype(np.float32): 1e-3}


@dataclass(frozen=True)
class GradCheckResult:
    group: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(analytic), initial=0.0)),
                float(np.max(np.abs(fd), initial=0.0)), 1e-12)
    return float(np.max(np.abs(analytic - fd), initial=0.0)) / denom


def _fd_grad(loss_fn, param: np.ndarray, eps: float) -> np.ndarray:
    """Central differences of loss_fn() w.r.t. an array perturbed in place."""
    fd = np.zeros(param.shape, dtype=np.float64)
    flat = param.reshape(-1)
    out = fd.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        plus = loss_fn()
        flat[i] = keep - eps
        minus = loss_fn()
        flat[i] = keep
        out[i] = (plus - minus) / (2.0 * eps)
    return fd


def check_sampler_gradients(dims=(2, 3, 6, 6), n: int = 5, seed: int = 0,
                            eps: float = 1e-3, dtype=np.float64) -> list[GradCheckResult]:
    """Finite-difference suite for bilinear_sample's three gradient outputs."""
    dtype = np.dtype(dtype)
    rng = Rng(seed)
    b_n, c_n, h_in, w_in = dims
    h_out, w_out = h_in - 1, w_in - 1
    gen = rng.stream("sampler/fixture")
    x_arr = gen.random(dims).astype(dtype)

    def coords(limit):
        cells = gen.integers(0, max(limit - 1, 1), size=(b_n, n, h_out, w_out))
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
        grid = SampleGrid(rows=rows.copy(), cols=cols.copy())
        return float(np.sum(bilinear_sample(Tensor4(x_arr.copy()), grid) * upstream))

    grid = SampleGrid(rows=rows.copy(), cols=cols.copy())
    grad_x, grad_rows, grad_cols = bilinear_backward(Tensor4(x_arr.copy()), grid, upstream)

    tol = DEFAULT_TOL[dtype]
    results = []
    for name, analytic, param in (("sampler/grad_x", np.array(grad_x.data), x_arr),
                                  ("sampler/grad_rows", grad_rows, rows),
                                  ("sampler/grad_cols", grad_cols, cols)):
        fd = _fd_grad(loss, param, eps)
        results.append(GradCheckResult(name, _rel_err(analytic, fd), tol))
    return results


def _layer_fixture(dims, n: int, seed: int, dtype, post: str, stride: int, padding: int):
    """Layer + input with all grid coordinates >= 0.2 from any lattice point.

    Offset biases land in +-[0.25, 0.45] and the offset weights are scaled so
    the data-dependent jitter stays below 0.02, bounding every coordinate's
    distance to the integer lattice (and so to clamp edges) away from zero.
    """
    dtype = np.dtype(dtype)
    rng = Rng(seed)
    b_n, c_in, h_in, w_in = dims
    c_out = 4
    layer = LdconvLayer.create(n, c_in, c_out, stride=stride, padding=padding,
                               post=post, rng=rng, dtype=dtype, name="gradcheck")
    gen = rng.stream("layer/fixture")
    mag = gen.uniform(0.25, 0.45, size=2 * n)
    sign = np.where(gen.random(2 * n) < 0.5, -1.0, 1.0)
    layer.offset_b = (mag * sign).astype(dtype)
    jitter = 0.02 / (9.0 * c_in)
    layer.offset_w = gen.uniform(-jitter, jitter,
                                 size=(2 * n, c_in, 3, 3)).astype(dtype)
    layer.agg_w = layer.agg_w.astype(dtype)
    if layer.agg_b is not None:
        layer.agg_b = gen.uniform(-0.1, 0.1, size=c_out).astype(dtype)
    x_arr = gen.random(dims).astype(dtype)
    y, _ = layer.forward(Tensor4(x_arr.copy()))
    upstream = gen.uniform(-1.0, 1.0, size=y.dims).astype(dtype)
    return layer, x_arr, upstream


def check_layer_gradients(dims=(2, 3, 6, 6), n: int = 5, seed: int = 0,
                          eps: float = 1e-4, dtype=np.float64, post: str = "none",
                          stride: int = 1, padding: int = 0,
                          sabotage: bool = False) -> list[GradCheckResult]:
    """Finite-difference suite for the layer's input and parameter gradients.

    With sabotage=True the analytic offset-weight gradient is deliberately
    corrupted; the suite must then report a failure (negative control).
    """
    dtype = np.dtype(dtype)
    layer, x_arr, upstream = _layer_fixture(dims, n, seed, dtype, post, stride, padding)

    def loss():
        y, _ = layer.forward(Tensor4(x_arr.copy()))
        return float(np.sum(y.data * upstream))

    y, cache = layer.forward(Tensor4(x_arr.copy()))
    grads = layer.backward(cache, Tensor4(upstream.copy()))
    if sabotage:
        grads.offset_w = grads.offset_w * 1.5 + 1e-3

    groups = [("layer/input", np.array(grads.x.data), x_arr)]
    groups += [(f"layer/{name}", getattr(grads, name), param)
               for name, param in layer.params().items()]

    tol = DEFAULT_TOL[dtype]
    results = []
    for name, analytic, param in groups:
        assert param.flags.writeable  # perturbed in place; loss() re-reads it
        fd = _fd_grad(loss, param, eps)
        results.append(GradCheckResult(name, _rel_err(analytic, fd), tol))
    return results
