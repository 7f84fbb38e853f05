"""Bilinear sampler: values, boundary clamp, and analytic gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldconv.gradcheck import check_sampler_gradients
from ldconv.sampler import SampleGrid, bilinear_backward, bilinear_sample
from ldconv.tensor import Rng, ShapeError, Tensor4, rand_uniform


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


def test_backward_rejects_bad_upstream():
    x = Tensor4(np.zeros((1, 2, 3, 3)))
    grid = _single_point(1.0, 1.0)
    with pytest.raises(ShapeError, match="upstream"):
        bilinear_backward(x, grid, np.zeros((1, 2, 2, 1, 1)))


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


def test_gradients_match_finite_differences():
    for seed in range(6):
        results = check_sampler_gradients(seed=seed, dtype=np.float64)
        for res in results:
            assert res.passed, f"seed {seed}: {res.group} err {res.max_rel_err:.3e}"


def test_gradcheck_float32_uses_looser_tolerance():
    results = check_sampler_gradients(seed=0, dtype=np.float32)
    assert all(r.passed for r in results)
    assert all(r.tol == pytest.approx(1e-3) for r in results)
