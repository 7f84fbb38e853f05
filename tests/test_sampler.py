"""Bilinear sampler: values, boundary clamp, and analytic gradients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldconv.gradcheck import check_sampler_gradients
from ldconv.sampler import SampleGrid, bilinear_backward, bilinear_sample
from ldconv.tensor import Rng, ShapeError, Tensor4, _owned, rand_uniform


# -- reference sampler ----------------------------------------------------------
# The per-corner NCHW gathers and four flat bincounts the sampler used before
# its channels-last plan, kept unchanged as the oracle the plan is checked
# against.


def _corners(x_arr: np.ndarray, grid: SampleGrid):
    """Clamp coordinates and derive corner indices, weights, and gathers."""
    b_n, c_n, h_in, w_in = x_arr.shape
    dtype = x_arr.dtype
    r = np.clip(grid.rows.astype(dtype, copy=False), dtype.type(0), dtype.type(h_in - 1))
    s = np.clip(grid.cols.astype(dtype, copy=False), dtype.type(0), dtype.type(w_in - 1))
    r0f = np.floor(r)
    s0f = np.floor(s)
    t = r - r0f
    u = s - s0f
    r0 = r0f.astype(np.int64)
    s0 = s0f.astype(np.int64)
    r1 = np.minimum(r0 + 1, h_in - 1)
    s1 = np.minimum(s0 + 1, w_in - 1)
    return r0, r1, s0, s1, t, u


def _gather(x_arr: np.ndarray, ridx: np.ndarray, sidx: np.ndarray) -> np.ndarray:
    """Gather x[b, :, ridx, sidx] for index arrays of shape (B, N, Ho, Wo)."""
    b_n, c_n, h_in, w_in = x_arr.shape
    b0, n_pts, h_out, w_out = ridx.shape
    flat = (ridx * w_in + sidx).reshape(b0, -1)
    x_flat = x_arr.reshape(b_n, c_n, h_in * w_in)
    # advanced indices at positions 0 and 2 put their broadcast shape first
    gathered = x_flat[np.arange(b_n)[:, None], :, flat]        # (B, P, C)
    return gathered.transpose(0, 2, 1).reshape(b_n, c_n, n_pts, h_out, w_out)


def reference_sample(x: Tensor4, grid: SampleGrid) -> np.ndarray:
    """Sample x at grid coordinates; returns (B, C, N, H_out, W_out)."""
    if grid.dims[0] != x.dims[0]:
        raise ShapeError(f"grid batch {grid.dims[0]} != input batch {x.dims[0]}")
    x_arr = x.data
    r0, r1, s0, s1, t, u = _corners(x_arr, grid)
    g00 = _gather(x_arr, r0, s0)
    g01 = _gather(x_arr, r0, s1)
    g10 = _gather(x_arr, r1, s0)
    g11 = _gather(x_arr, r1, s1)
    one = x_arr.dtype.type(1)
    w00 = ((one - t) * (one - u))[:, None]
    w01 = ((one - t) * u)[:, None]
    w10 = (t * (one - u))[:, None]
    w11 = (t * u)[:, None]
    return w00 * g00 + w01 * g01 + w10 * g10 + w11 * g11


def reference_backward(x: Tensor4, grid: SampleGrid, upstream: np.ndarray):
    """Gradients of sum(upstream * bilinear_sample(x, grid)).

    Returns (grad_x: Tensor4, grad_rows, grad_cols); the coordinate gradients
    are zeroed where the raw coordinate was clamped.
    """
    x_arr = x.data
    b_n, c_n, h_in, w_in = x_arr.shape
    upstream = np.asarray(upstream, dtype=x_arr.dtype)
    b0, n_pts, h_out, w_out = grid.dims
    if upstream.shape != (b_n, c_n, n_pts, h_out, w_out):
        raise ShapeError(
            f"upstream shape {upstream.shape} != {(b_n, c_n, n_pts, h_out, w_out)}")

    r0, r1, s0, s1, t, u = _corners(x_arr, grid)
    g00 = _gather(x_arr, r0, s0)
    g01 = _gather(x_arr, r0, s1)
    g10 = _gather(x_arr, r1, s0)
    g11 = _gather(x_arr, r1, s1)

    one = x_arr.dtype.type(1)
    # d(sample)/dr and d(sample)/ds per channel, then contracted with upstream
    d_dr = (one - u)[:, None] * (g10 - g00) + u[:, None] * (g11 - g01)
    d_ds = (one - t)[:, None] * (g01 - g00) + t[:, None] * (g11 - g10)
    grad_rows = (upstream * d_dr).sum(axis=1)
    grad_cols = (upstream * d_ds).sum(axis=1)

    in_rows = (grid.rows >= 0) & (grid.rows <= h_in - 1)
    in_cols = (grid.cols >= 0) & (grid.cols <= w_in - 1)
    grad_rows = np.where(in_rows, grad_rows, 0).astype(x_arr.dtype)
    grad_cols = np.where(in_cols, grad_cols, 0).astype(x_arr.dtype)

    # Scatter-add the four corner contributions into the input gradient.
    plane = h_in * w_in
    base = (np.arange(b_n, dtype=np.int64)[:, None] * c_n
            + np.arange(c_n, dtype=np.int64)[None, :]) * plane   # (B, C)
    p_tot = n_pts * h_out * w_out
    up_flat = upstream.reshape(b_n, c_n, p_tot)
    w00 = ((one - t) * (one - u)).reshape(b_n, 1, p_tot)
    w01 = ((one - t) * u).reshape(b_n, 1, p_tot)
    w10 = (t * (one - u)).reshape(b_n, 1, p_tot)
    w11 = (t * u).reshape(b_n, 1, p_tot)
    grad_flat = np.zeros(b_n * c_n * plane, dtype=np.float64)
    for weight, ridx, sidx in ((w00, r0, s0), (w01, r0, s1), (w10, r1, s0), (w11, r1, s1)):
        cell = (ridx * w_in + sidx).reshape(b_n, 1, p_tot)
        idx = (base[:, :, None] + cell).reshape(-1)
        contrib = (up_flat * weight).reshape(-1)
        grad_flat += np.bincount(idx, weights=contrib, minlength=grad_flat.size)
    grad_x = grad_flat.reshape(b_n, c_n, h_in, w_in).astype(x_arr.dtype)
    return _owned(grad_x), grad_rows, grad_cols


def _grid(rows, cols):
    return SampleGrid(np.asarray(rows, dtype=np.float64),
                      np.asarray(cols, dtype=np.float64))


def _single_point(row, col):
    return _grid([[[[row]]]], [[[[col]]]])


def test_hand_interpolated_value():
    # 1x3 map [0, 10, 20]; reading at column 1.25 mixes 0.75*10 + 0.25*20.
    x = Tensor4(np.array([[[[0.0, 10.0, 20.0]]]]))
    out = bilinear_sample(x, _single_point(0.0, 1.25))
    assert out.shape == (1, 1, 1, 1, 1)
    assert out[0, 0, 0, 0, 0] == pytest.approx(12.5, abs=1e-12)


def test_integer_coordinates_reproduce_pixels():
    gen = Rng(2)
    x = rand_uniform((1, 2, 4, 5), gen, dtype=np.float64)
    rows = np.zeros((1, 4 * 5, 1, 1))
    cols = np.zeros((1, 4 * 5, 1, 1))
    for h in range(4):
        for w in range(5):
            rows[0, h * 5 + w, 0, 0] = h
            cols[0, h * 5 + w, 0, 0] = w
    out = bilinear_sample(x, _grid(rows, cols))
    for h in range(4):
        for w in range(5):
            assert np.array_equal(out[0, :, h * 5 + w, 0, 0], x.data[0, :, h, w])


def test_out_of_range_coordinates_clamp():
    x = Tensor4(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    low = bilinear_sample(x, _single_point(-7.5, -2.0))
    high = bilinear_sample(x, _single_point(9.0, 55.25))
    assert low[0, 0, 0, 0, 0] == 1.0    # clamps onto (0, 0)
    assert high[0, 0, 0, 0, 0] == 4.0   # clamps onto (1, 1)


def test_value_linearity():
    gen = Rng(11)
    x = rand_uniform((2, 3, 5, 5), gen, stream="x", dtype=np.float64)
    y = rand_uniform((2, 3, 5, 5), gen, stream="y", dtype=np.float64)
    rows = gen.stream("rows").uniform(0, 4, size=(2, 6, 3, 3))
    cols = gen.stream("cols").uniform(0, 4, size=(2, 6, 3, 3))
    grid = _grid(rows, cols)
    alpha, beta = 1.75, -0.5
    mixed = Tensor4(alpha * x.data + beta * y.data)
    lhs = bilinear_sample(mixed, grid)
    rhs = alpha * bilinear_sample(x, grid) + beta * bilinear_sample(y, grid)
    assert np.allclose(lhs, rhs, rtol=1e-5, atol=1e-12)


@given(
    t=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_partition_of_unity(t, u):
    # Per-axis weight pairs are exactly complementary under round-to-nearest;
    # the sum of the four rounded products can be off by one last-place unit.
    assert (1.0 - t) + t == 1.0
    assert (1.0 - u) + u == 1.0
    total = (1 - t) * (1 - u) + (1 - t) * u + t * (1 - u) + t * u
    assert total == pytest.approx(1.0, abs=2 * np.finfo(np.float64).eps)


def test_constant_map_samples_constant_everywhere():
    # A direct consequence of the four weights summing to one.
    x = Tensor4(np.full((1, 1, 4, 4), 3.25))
    rows = Rng(4).stream("r").uniform(-1, 5, size=(1, 8, 2, 2))
    cols = Rng(4).stream("c").uniform(-1, 5, size=(1, 8, 2, 2))
    out = bilinear_sample(x, _grid(rows, cols))
    assert np.allclose(out, 3.25, rtol=0, atol=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError, match="invalid coordinate"):
        _grid([[[[np.nan]]]], [[[[0.0]]]])
    with pytest.raises(ShapeError):
        SampleGrid(np.zeros((1, 1, 1, 1)), np.zeros((1, 1, 2, 1)))
    with pytest.raises(ShapeError):
        SampleGrid(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))
    x = Tensor4(np.zeros((2, 1, 3, 3)))
    with pytest.raises(ShapeError, match="batch"):
        bilinear_sample(x, _single_point(0.0, 0.0))


def test_grid_images_are_read_only_views_of_the_checked_grid():
    gen = np.random.default_rng(0)
    grid = SampleGrid(gen.uniform(-1, 4, size=(3, 2, 2, 2)), gen.uniform(-1, 4, size=(3, 2, 2, 2)))
    part = grid.images(slice(1, 3))
    assert isinstance(part, SampleGrid) and part.dims == (2, 2, 2, 2)
    for got, full in ((part.rows, grid.rows), (part.cols, grid.cols)):
        assert np.shares_memory(got, full) and not got.flags.writeable
        assert np.array_equal(got, full[1:3])


def test_backward_rejects_bad_upstream():
    x = Tensor4(np.zeros((1, 2, 3, 3)))
    grid = _single_point(1.0, 1.0)
    with pytest.raises(ShapeError, match="upstream"):
        bilinear_backward(x, grid, np.zeros((1, 2, 2, 1, 1)))
    # a batch-1 grid with a batch-2 input, the upstream shaped for the input
    x2 = Tensor4(np.zeros((2, 2, 3, 3)))
    with pytest.raises(ShapeError, match="grid batch 1 != input batch 2"):
        bilinear_backward(x2, grid, np.zeros((2, 2, 1, 1, 1)))


def test_backward_grad_x_scatters_corner_weights():
    x = Tensor4(np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3))
    grid = _single_point(0.5, 1.25)
    up = np.ones((1, 1, 1, 1, 1))
    grad_x, grad_rows, grad_cols = bilinear_backward(x, grid, up)
    expect = np.zeros((3, 3))
    expect[0, 1] = 0.5 * 0.75
    expect[0, 2] = 0.5 * 0.25
    expect[1, 1] = 0.5 * 0.75
    expect[1, 2] = 0.5 * 0.25
    assert np.allclose(grad_x.data[0, 0], expect, atol=1e-12)
    # value along rows changes by x[r1]-x[r0] weighted across columns
    d_dr = 0.75 * (x.data[0, 0, 1, 1] - x.data[0, 0, 0, 1]) + \
        0.25 * (x.data[0, 0, 1, 2] - x.data[0, 0, 0, 2])
    assert grad_rows[0, 0, 0, 0] == pytest.approx(d_dr, abs=1e-12)
    d_ds = 0.5 * (x.data[0, 0, 0, 2] - x.data[0, 0, 0, 1]) + \
        0.5 * (x.data[0, 0, 1, 2] - x.data[0, 0, 1, 1])
    assert grad_cols[0, 0, 0, 0] == pytest.approx(d_ds, abs=1e-12)


def test_backward_zeroes_coordinate_grads_outside_range():
    x = Tensor4(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
    grid = _grid([[[[-3.0, 1.5]]]], [[[[1.5, 9.0]]]])
    up = np.ones((1, 1, 1, 1, 2))
    _, grad_rows, grad_cols = bilinear_backward(x, grid, up)
    assert grad_rows[0, 0, 0, 0] == 0.0      # row clamped below
    assert grad_cols[0, 0, 0, 0] != 0.0      # column in range
    assert grad_cols[0, 0, 0, 1] == 0.0      # column clamped above
    assert grad_rows[0, 0, 0, 1] != 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_clamp_edge_is_judged_on_the_raw_grid(dtype):
    # A float64 grid on and just past each edge.  Past H-1 (W-1) the clamped
    # cell is flat, so the gradient is 0 whatever the mask; -1e-50 rounds to
    # -0.0 in float32, where a mask taken after the cast to the input's dtype
    # would keep the gradient of the cell at 0.  The raw grid says outside.
    h, w = 4, 5
    gen = np.random.default_rng(5)
    x = Tensor4(gen.uniform(-1, 1, size=(1, 2, h, w)).astype(dtype))
    rows = np.array([-1e-12, -1e-50, 0.0, 1.5, h - 1, h - 1 + 1e-12])
    cols = np.array([-1e-12, -1e-50, 0.0, 2.5, w - 1, w - 1 + 1e-12])
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    grid = _grid(rr.reshape(1, -1, 1, 1), cc.reshape(1, -1, 1, 1))
    up = gen.uniform(-1, 1, size=(1, 2, rr.size, 1, 1)).astype(dtype)
    _, gr, gc = bilinear_backward(x, grid, up)
    _, rgr, rgc = reference_backward(x, grid, up)
    assert gr.dtype == dtype and (gr != 0).any() and (gc != 0).any()
    assert np.array_equal(gr == 0, rgr == 0)
    assert np.array_equal(gc == 0, rgc == 0)
    outside_r = (rr < 0) | (rr > h - 1)
    outside_c = (cc < 0) | (cc > w - 1)
    assert np.all(gr.reshape(rr.shape)[outside_r] == 0)
    assert np.all(gc.reshape(cc.shape)[outside_c] == 0)


@pytest.mark.parametrize("dims", [(1, 2, 1, 5), (1, 2, 5, 1)])
def test_sampler_gradcheck_refuses_an_empty_grid(dims):
    # the fixture's grid is (H-1) x (W-1): nothing to check when H or W is 1
    with pytest.raises(ValueError, match="H, W >= 2"):
        check_sampler_gradients(dims=dims)


def test_gradients_match_finite_differences():
    for seed in range(6):
        results = check_sampler_gradients(seed=seed, dtype=np.float64)
        for res in results:
            assert res.passed, f"seed {seed}: {res.group} err {res.max_rel_err:.3e}"


def test_gradcheck_float32_uses_looser_tolerance():
    results = check_sampler_gradients(seed=0, dtype=np.float32)
    assert all(r.passed for r in results)
    assert all(r.tol == pytest.approx(1e-3) for r in results)


# -- the channels-last plan against the reference -------------------------------


def _coordinates(gen, shape, extent):
    """Coordinates on [0, extent-1] mixed with out-of-range ones, exact
    integers, and the exact last row or column."""
    coords = gen.uniform(0, extent - 1, size=shape)
    kind = gen.integers(0, 4, size=shape)
    outside = gen.uniform(-3, extent + 2, size=shape)
    coords = np.where(kind == 1, outside, coords)
    coords = np.where(kind == 2, gen.integers(-1, extent + 1, size=shape), coords)
    return np.where(kind == 3, extent - 1, coords)


def _rel_err(got, ref):
    scale = np.abs(ref).max()
    err = np.abs(np.asarray(got, np.float64) - ref).max()
    return err / scale if scale else err


def _both(x, grid, up):
    return ((bilinear_sample(x, grid), bilinear_backward(x, grid, up)),
            (reference_sample(x, grid), reference_backward(x, grid, up)))


@settings(max_examples=60, deadline=None)
@given(b_n=st.integers(1, 3), c_n=st.integers(1, 4), h=st.integers(1, 6),
       w=st.integers(1, 6), n_pts=st.integers(1, 4), h_out=st.integers(1, 3),
       w_out=st.integers(1, 3), seed=st.integers(0, 2**31))
def test_plan_matches_reference(b_n, c_n, h, w, n_pts, h_out, w_out, seed):
    gen = np.random.default_rng(seed)
    grid_shape = (b_n, n_pts, h_out, w_out)
    rows = _coordinates(gen, grid_shape, h)
    cols = _coordinates(gen, grid_shape, w)
    x_vals = gen.uniform(-1, 1, size=(b_n, c_n, h, w))
    up_vals = gen.uniform(-1, 1, size=(b_n, c_n) + grid_shape[1:])

    x = Tensor4(x_vals)
    grid = _grid(rows, cols)
    (out, (gx, gr, gc)), (ref, (rgx, rgr, rgc)) = _both(x, grid, up_vals)
    assert out.shape == ref.shape and gr.shape == rgr.shape == grid_shape
    for got, want in ((out, ref), (gx.data, rgx.data), (gr, rgr), (gc, rgc)):
        assert _rel_err(got, want) <= 1e-12
    no_x, sr, sc = bilinear_backward(x, grid, up_vals, input_grad=False)
    assert no_x is None
    assert sr.tobytes() == gr.tobytes() and sc.tobytes() == gc.tobytes()

    x32 = x.astype(np.float32)
    grid32 = SampleGrid(rows.astype(np.float32), cols.astype(np.float32))
    up32 = up_vals.astype(np.float32)
    (_, (gx, gr, gc)), (_, (rgx, rgr, rgc)) = _both(x32, grid32, up32)
    assert gx.dtype == np.float32 and gr.dtype == gc.dtype == np.float32
    assert _rel_err(gx.data, rgx.data.astype(np.float64)) <= 1e-6
    assert np.array_equal(gr == 0, rgr == 0)
    assert np.array_equal(gc == 0, rgc == 0)


@pytest.mark.parametrize("dims", [(2, 3, 1, 5), (2, 3, 4, 1), (1, 2, 1, 1)])
def test_single_row_or_column_reads_the_repeated_edge(dims):
    # H=1 (W=1) leaves no lower (right) pixel: every row (column) clamps to 0
    # with t = 0 (u = 0), so the lower (right) corner is the plan table's
    # repeated edge, which holds the same pixel with weight 0, and the row
    # (column) gradient vanishes.
    b_n, c_n, h, w = dims
    gen = np.random.default_rng(3)
    x = Tensor4(gen.uniform(-1, 1, size=dims))
    rows = np.array([0.0, 0.0, -0.5, h - 1 + 0.25, 0.0, h - 1])
    cols = np.array([0.0, w - 1, 1.5, -2.0, 0.75 * (w - 1), 0.25])
    grid = _grid(np.broadcast_to(rows.reshape(1, 6, 1, 1), (b_n, 6, 1, 1)),
                 np.broadcast_to(cols.reshape(1, 6, 1, 1), (b_n, 6, 1, 1)))
    up = gen.uniform(-1, 1, size=(b_n, c_n, 6, 1, 1))
    (out, (gx, gr, gc)), (ref, (rgx, rgr, rgc)) = _both(x, grid, up)
    assert _rel_err(out, ref) <= 1e-12
    assert _rel_err(gx.data, rgx.data) <= 1e-12
    assert _rel_err(gr, rgr) <= 1e-12 and _rel_err(gc, rgc) <= 1e-12
    if h == 1:
        assert np.all(gr == 0)
    if w == 1:
        assert np.all(gc == 0)
    # the input gradient keeps the upstream's total: the weights sum to one
    assert np.allclose(gx.data.sum(axis=(2, 3)), up.sum(axis=(2, 3, 4)), rtol=1e-12)


def test_sample_peak_memory_at_the_first_layer_shape():
    # one 256-image call at ld1's input and grid, one block: the sampler
    # takes the batch it is given, the layer splits it.  The plan is one int64
    # top-left index per sample, not four corner indices
    gen = np.random.default_rng(0)
    x = Tensor4(gen.uniform(-1, 1, size=(256, 1, 28, 28)).astype(np.float32))
    shape = (256, 5, 14, 14)
    grid = SampleGrid(gen.uniform(-1, 28, size=shape).astype(np.float32),
                      gen.uniform(-1, 28, size=shape).astype(np.float32))
    bilinear_sample(x, grid)
    tracemalloc.start()
    try:
        bilinear_sample(x, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_one_block_sample_allocates_its_output_after_the_plan():
    # ld2's batch-32 call: the samples it returns are its own (B, P, C)
    # buffer, seen channels-first; a separate (B, C, P) output, 245 KiB,
    # allocated alongside the plan and weights traced 1.15 MiB
    gen = np.random.default_rng(0)
    x = Tensor4(gen.uniform(-1, 1, size=(32, 8, 14, 14)).astype(np.float32))
    shape = (32, 5, 7, 7)
    grid = SampleGrid(gen.uniform(-1, 14, size=shape).astype(np.float32),
                      gen.uniform(-1, 14, size=shape).astype(np.float32))
    bilinear_sample(x, grid)
    tracemalloc.start()
    try:
        bilinear_sample(x, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_backward_peak_memory_at_the_stress_shape():
    # one 8-image call, one block: the four corners are gathered one at a
    # time into one (B, P, C) buffer; a stacked (4, B, P, C) gather alone
    # would be 18 MiB here
    gen = np.random.default_rng(0)
    x = Tensor4(gen.uniform(-1, 1, size=(8, 16, 32, 32)).astype(np.float32))
    shape = (8, 9, 32, 32)
    grid = SampleGrid(gen.uniform(-1, 32, size=shape).astype(np.float32),
                      gen.uniform(-1, 32, size=shape).astype(np.float32))
    up = gen.uniform(-1, 1, size=(8, 16) + shape[1:]).astype(np.float32)
    bilinear_backward(x, grid, up)
    tracemalloc.start()
    try:
        bilinear_backward(x, grid, up)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
