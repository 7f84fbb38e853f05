"""Bilinear sampling of fractional coordinates with boundary clamping.

Coordinates are clamped into [0, H-1] x [0, W-1] before interpolation.  With
r0 = floor(r), r1 = min(r0 + 1, H-1) and fractional parts t = r - r0,
u = s - s0, the sample is

    (1-t)(1-u) x[r0,s0] + (1-t)u x[r0,s1] + t(1-u) x[r1,s0] + t u x[r1,s1].

The coordinate gradient is zero wherever the raw coordinate fell outside the
clamp range (the clamp is flat there); at exact lattice points the floor-based
cell supplies the subgradient.

Every channel shares a sample's coordinates, so both directions work on a
channels-last view of the input: row (b*H + h)*W + w of a (B*H*W, C) matrix
holds the C values of one pixel.  One plan per call clamps the grid once and
gives each sample its top-left corner row, the steps to the other three
corners and the fractions t, u; for the backward it also marks the
coordinates the clamp moved.  The forward gathers whole rows one corner at
a time and accumulates them; a stacked four-corner gather would raise peak
memory.  The backward gathers the four corners together, contracts them with
the upstream over C for the coordinate gradients, and scatters the input
gradient with one float64 bincount per channel over the shared corner index,
so the sum is accumulated in float64 in a fixed order whatever the dtype.
A caller whose input needs no gradient (a network's first layer) passes
input_grad=False and the scatter, the larger part of the backward, is
skipped.  The backward rebuilds the plan rather than have forward cache it: four
int64 indices and four weights per sample are 12x the float32 samples of a
one-channel input, which inference would carry for a backward it never runs,
while the rebuild is a few elementwise passes over the grid.
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


def _plan(x_arr: np.ndarray, grid: SampleGrid, *, masks: bool = False):
    """Four-corner interpolation plan of one sampling call.

    Returns the channels-last rows (B*H*W, C) of x; per sample (B, P), with
    P = N*H_out*W_out, the row of the top-left corner, the steps from it to
    the lower and to the right corners (W resp. 1, or 0 on the last row resp.
    column, which is r1 = min(r0 + 1, H-1)); the fractions t, u; and, with
    masks (for the backward), the masks of the rows and of the cols the clamp
    moved, else None.  The clamp runs in the grid's dtype, where clipped != raw
    is exactly "outside [0, extent-1]", before the cast to x's dtype.
    """
    b_n, c_n, h_in, w_in = x_arr.shape
    dtype = x_arr.dtype
    raw_r = grid.rows.reshape(b_n, -1)
    raw_c = grid.cols.reshape(b_n, -1)
    t = np.clip(raw_r, raw_r.dtype.type(0), raw_r.dtype.type(h_in - 1))
    u = np.clip(raw_c, raw_c.dtype.type(0), raw_c.dtype.type(w_in - 1))
    clamped = (t != raw_r, u != raw_c) if masks else None
    t = t.astype(dtype, copy=False)
    u = u.astype(dtype, copy=False)
    r0 = np.floor(t)
    s0 = np.floor(u)
    t -= r0
    u -= s0
    down = np.where(r0 < h_in - 1, w_in, 0)
    right = np.where(s0 < w_in - 1, 1, 0)
    top_left = r0.astype(np.int64)
    top_left *= w_in
    top_left += s0.astype(np.int64)
    top_left += np.arange(b_n, dtype=np.int64)[:, None] * (h_in * w_in)
    rows = np.ascontiguousarray(x_arr.transpose(0, 2, 3, 1)).reshape(-1, c_n)
    return rows, top_left, down, right, t, u, clamped


def _weights(t: np.ndarray, u: np.ndarray, out=(None,) * 4):
    """Bilinear weights of the top-left, right, lower and lower-right corners,
    as four fresh arrays or written into the four rows of out."""
    one = t.dtype.type(1)
    t1 = one - t
    u1 = one - u
    return (np.multiply(t1, u1, out=out[0]), np.multiply(t1, u, out=out[1]),
            np.multiply(t, u1, out=out[2]), np.multiply(t, u, out=out[3]))


def bilinear_sample(x: Tensor4, grid: SampleGrid) -> np.ndarray:
    """Sample x at grid coordinates; returns (B, C, N, H_out, W_out)."""
    if grid.dims[0] != x.dims[0]:
        raise ShapeError(f"grid batch {grid.dims[0]} != input batch {x.dims[0]}")
    b_n, c_n = x.dims[:2]
    rows, top_left, down, right, t, u, _ = _plan(x.data, grid)
    w00, w01, w10, w11 = _weights(t, u)
    # one corner at a time: a stacked (4, B, P, C) gather raises peak memory
    out = np.take(rows, top_left, axis=0)                 # (B, P, C)
    out *= w00[:, :, None]
    term = np.empty_like(out)
    for index, weight in ((top_left + right, w01), (top_left + down, w10),
                          (top_left + down + right, w11)):
        # in range by construction; mode 'raise' would buffer the out array
        np.take(rows, index, axis=0, out=term, mode="clip")
        term *= weight[:, :, None]
        out += term
    del term
    out = np.ascontiguousarray(out.transpose(0, 2, 1))
    return out.reshape((b_n, c_n) + grid.dims[1:])


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
    b0, n_pts, h_out, w_out = grid.dims
    if upstream.shape != (b_n, c_n, n_pts, h_out, w_out):
        raise ShapeError(
            f"upstream shape {upstream.shape} != {(b_n, c_n, n_pts, h_out, w_out)}")

    rows, top_left, down, right, t, u, (clamped_r, clamped_c) = _plan(x_arr, grid, masks=True)
    corner = np.empty((4,) + top_left.shape, dtype=np.int64)
    corner[0] = top_left
    np.add(top_left, right, out=corner[1])
    np.add(top_left, down, out=corner[2])
    np.add(corner[2], right, out=corner[3])
    del top_left, down, right
    up = upstream.reshape(b_n, c_n, -1)
    up_rows = np.ascontiguousarray(up.transpose(0, 2, 1))          # (B, P, C)
    # per corner, the gathered rows contracted with the upstream over C
    a00, a01, a10, a11 = np.einsum("kbpc,bpc->kbp", np.take(rows, corner, axis=0), up_rows)
    del up_rows

    one = x_arr.dtype.type(1)
    grad_rows = (one - u) * (a10 - a00) + u * (a11 - a01)
    grad_cols = (one - t) * (a01 - a00) + t * (a11 - a10)
    grad_rows[clamped_r] = 0
    grad_cols[clamped_c] = 0
    grad_rows = grad_rows.reshape(grid.dims)
    grad_cols = grad_cols.reshape(grid.dims)
    if not input_grad:
        return None, grad_rows, grad_cols

    # One float64 bincount per channel over the shared corner index; the
    # products are taken in the input dtype and summed in float64.
    weight = np.empty((4,) + t.shape, dtype=t.dtype)
    _weights(t, u, out=weight)
    corner = corner.reshape(-1)
    contrib = np.empty(weight.shape, dtype=np.float64)
    grad_x = np.empty_like(x_arr)
    for c in range(c_n):
        np.multiply(weight, up[:, c], out=contrib)
        grad_x[:, c] = np.bincount(corner, weights=contrib.reshape(-1),
                                   minlength=rows.shape[0]).reshape(b_n, h_in, w_in)
    return _owned(grad_x), grad_rows, grad_cols
