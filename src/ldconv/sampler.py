"""Bilinear sampling of fractional coordinates with boundary clamping.

Coordinates are clamped into [0, H-1] x [0, W-1] before interpolation.  With
r0 = floor(r), r1 = min(r0 + 1, H-1) and fractional parts t = r - r0,
u = s - s0, the sample is

    (1-t)(1-u) x[r0,s0] + (1-t)u x[r0,s1] + t(1-u) x[r1,s0] + t u x[r1,s1].

The coordinate gradient is zero wherever the raw coordinate, compared in the
grid's own dtype, fell outside the clamp range (the clamp is flat there); at
exact lattice points the floor-based cell supplies the subgradient.

Every channel shares a sample's coordinates, so both directions work on a
channels-last table of the input, (B*(H+1)*(W+1), C), whose extra last row
and column repeat the input's.  Each corner is then a fixed step
(0, 1, W+1, W+2) from the top-left one: r0 = H-1 only where the clamp gave
t = 0, and row H repeats row H-1, which is r1 = min(r0 + 1, H-1); columns
alike.

Each call is one pass over the images it is given, one block: LdconvLayer
calls each direction once per block of whole images.

One plan clamps the grid once and gives each sample its top-left table row
and the fractions t, u behind the four corner weights.  Both directions
gather whole rows one corner at a time, from the table shifted by the
corner's step, into one reused (B, P, C) buffer.  The backward contracts
each gathered corner with the upstream over C for the coordinate gradients.
Only its input-gradient scatter builds the (4, B, P) corner index, for one
float64 bincount per channel, in a fixed order whatever the dtype; the
repeated edge gets only zero weights and is dropped.  input_grad=False (a
network's first layer) skips the scatter, the larger part of the backward.
The plan is rebuilt in backward, not cached: one int64 index and four
weights per sample are 6x the float32 samples of a one-channel input, which
inference would carry for a backward it never runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor4, _owned

@dataclass(frozen=True)
class SampleGrid:
    """Per-sample fractional coordinates, rows and cols each (B, N, H_out, W_out)."""

    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows)
        cols = np.asarray(self.cols)
        if rows.ndim != 4 or cols.ndim != 4:
            raise ShapeError(f"grid arrays must be rank 4, got {rows.ndim}/{cols.ndim}")
        if rows.shape != cols.shape:
            raise ShapeError(f"grid shape mismatch: rows {rows.shape} vs cols {cols.shape}")
        if not (np.isfinite(rows).all() and np.isfinite(cols).all()):
            raise ValueError("invalid coordinate: grid holds non-finite values")
        for name, arr in (("rows", rows), ("cols", cols)):
            if arr.flags.writeable:
                arr = arr.copy()
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.rows.shape

    def images(self, blk: slice) -> "SampleGrid":
        """The batch slice blk, read-only views of this checked grid, not checked again."""
        part = object.__new__(SampleGrid)
        part.__dict__.update(rows=self.rows[blk], cols=self.cols[blk])
        return part


def _raw(x_arr: np.ndarray, grid: SampleGrid):
    """The grid's raw rows and cols as (B, P); ShapeError unless the batches match."""
    b_n = x_arr.shape[0]
    if grid.dims[0] != b_n:
        raise ShapeError(f"grid batch {grid.dims[0]} != input batch {b_n}")
    return grid.rows.reshape(b_n, -1), grid.cols.reshape(b_n, -1)


def _plan(x_arr: np.ndarray, raw_r: np.ndarray, raw_c: np.ndarray):
    """Interpolation plan of x (B, C, H, W) sampled at raw (B, P) coordinates:
    the channels-last table of x, per sample (B, P) the table row of its
    top-left corner, the steps from it to the four corners, and the fractions
    t, u.  The clamp runs in the grid's dtype, before the cast to x's dtype.
    """
    b_n, c_n, h_in, w_in = x_arr.shape
    dtype = x_arr.dtype
    t = np.clip(raw_r, raw_r.dtype.type(0), raw_r.dtype.type(h_in - 1)).astype(dtype, copy=False)
    u = np.clip(raw_c, raw_c.dtype.type(0), raw_c.dtype.type(w_in - 1)).astype(dtype, copy=False)
    r0 = np.floor(t)
    s0 = np.floor(u)
    t -= r0
    u -= s0
    top_left = r0.astype(np.int64)
    top_left *= w_in + 1
    top_left += s0.astype(np.int64)
    top_left += np.arange(b_n, dtype=np.int64)[:, None] * ((h_in + 1) * (w_in + 1))
    table = np.empty((b_n, h_in + 1, w_in + 1, c_n), dtype=dtype)
    table[:, :h_in, :w_in] = x_arr.transpose(0, 2, 3, 1)
    table[:, h_in, :w_in] = table[:, h_in - 1, :w_in]
    table[:, :, w_in] = table[:, :, w_in - 1]
    return table.reshape(-1, c_n), top_left, (0, 1, w_in + 1, w_in + 2), t, u


def _weights(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(4, B, P) bilinear weights of the corners in _plan's order."""
    one = t.dtype.type(1)
    t1, u1 = one - t, one - u
    weight = np.empty((4,) + t.shape, dtype=t.dtype)
    for k, (row_w, col_w) in enumerate(((t1, u1), (t1, u), (t, u1), (t, u))):
        np.multiply(row_w, col_w, out=weight[k])
    return weight


def bilinear_sample(x: Tensor4, grid: SampleGrid) -> np.ndarray:
    """Sample x at grid coordinates; returns (B, C, N, H_out, W_out), a
    channels-first view of the (B, P, C) samples."""
    x_arr = x.data
    rows, top_left, steps, t, u = _plan(x_arr, *_raw(x_arr, grid))
    weight = _weights(t, u)
    del t, u
    # one corner at a time: a stacked (4, B, P, C) gather raises peak memory
    out = np.take(rows, top_left, axis=0)                 # (B, P, C)
    out *= weight[0][:, :, None]
    term = np.empty_like(out)
    for k in range(1, 4):
        # in range by construction; mode 'raise' would buffer the out array
        np.take(rows[steps[k]:], top_left, axis=0, out=term, mode="clip")
        term *= weight[k][:, :, None]
        out += term
    return out.transpose(0, 2, 1).reshape(x.dims[:2] + grid.dims[1:])


def bilinear_backward(x: Tensor4, grid: SampleGrid, upstream: np.ndarray, *,
                      input_grad: bool = True):
    """Gradients of sum(upstream * bilinear_sample(x, grid)).

    Returns (grad_x: Tensor4, grad_rows, grad_cols); the coordinate gradients
    are zeroed where the raw coordinate was clamped.  With input_grad=False
    the input-gradient scatter is skipped and grad_x is None.
    """
    x_arr = x.data
    b_n, c_n, h_in, w_in = x_arr.shape
    upstream = np.asarray(upstream, dtype=x_arr.dtype)
    if upstream.shape != (b_n, c_n) + grid.dims[1:]:
        raise ShapeError(f"upstream shape {upstream.shape} != {(b_n, c_n) + grid.dims[1:]}")
    raw_r, raw_c = _raw(x_arr, grid)
    rows, top_left, steps, t, u = _plan(x_arr, raw_r, raw_c)
    up = upstream.reshape(b_n, c_n, -1)
    up_rows = np.ascontiguousarray(up.transpose(0, 2, 1))          # (B, P, C)
    # per corner, the gathered rows contracted with the upstream over C; one
    # corner at a time into one buffer, as in bilinear_sample
    dots = np.empty((4,) + top_left.shape, dtype=x_arr.dtype)
    gathered = np.empty_like(up_rows)
    for k, step in enumerate(steps):
        np.take(rows[step:], top_left, axis=0, out=gathered, mode="clip")
        np.einsum("bpc,bpc->bp", gathered, up_rows, out=dots[k])
    del gathered, up_rows
    a00, a01, a10, a11 = dots

    one = x_arr.dtype.type(1)
    grad_rows = (one - u) * (a10 - a00) + u * (a11 - a01)
    grad_cols = (one - t) * (a01 - a00) + t * (a11 - a10)
    # the clamp is flat outside [0, extent-1], judged in the grid's dtype
    grad_rows[(raw_r < 0) | (raw_r > h_in - 1)] = 0
    grad_cols[(raw_c < 0) | (raw_c > w_in - 1)] = 0
    grad_x = None
    if input_grad:
        # One float64 bincount per channel over the four corners' table rows; the
        # products are taken in the input dtype and summed in float64.  What lands
        # in the repeated edge has weight exactly 0: dropping it changes no sum.
        weight = _weights(t, u)
        corner = (top_left + np.array(steps)[:, None, None]).reshape(-1)    # (4, B, P)
        contrib = np.empty(weight.shape, dtype=np.float64)
        grad_x = np.empty_like(x_arr)
        for c in range(c_n):
            np.multiply(weight, up[:, c], out=contrib)
            grad_x[:, c] = np.bincount(corner, weights=contrib.reshape(-1), minlength=rows.shape[0]
                                       ).reshape(b_n, h_in + 1, w_in + 1)[:, :h_in, :w_in]
        grad_x = _owned(grad_x)
    return grad_x, grad_rows.reshape(grid.dims), grad_cols.reshape(grid.dims)
