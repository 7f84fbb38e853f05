"""Deformable layer: offsets, grid assembly, aggregation, and gradients."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldconv.layer as layer_mod
import ldconv.sampler as sampler_mod
from ldconv.gradcheck import check_layer_gradients
from ldconv.geometry import KernelGeometry, gen_initial_coords
from ldconv.cli import REL_TOL_STRATEGY
from ldconv.layer import LdconvLayer, OffsetField, layer_sidecar
from ldconv.sampler import SampleGrid
from ldconv.tensor import (Rng, ShapeError, Tensor4, conv2d_reference, pad2d, rand_uniform,
                           read_tensors, write_tensors)
from ldconv.training import TinyNet, load_net, save_net


def _rel_dev(a, b):
    scale = max(float(np.max(np.abs(a))), 1e-12)
    return float(np.max(np.abs(a - b))) / scale


def _randomized(layer, rng, w_scale=0.1, b_scale=0.5):
    layer.offset_w = rng.stream("offw").uniform(
        -w_scale, w_scale, size=layer.offset_w.shape).astype(layer.dtype)
    layer.offset_b = rng.stream("offb").uniform(
        -b_scale, b_scale, size=layer.offset_b.shape).astype(layer.dtype)
    return layer


def _offsets(layer, x):
    return layer.forward(x)[1].offsets


def _round_trip(layer, path):
    """Save the layer as a net's first layer and rebuild it from the checkpoint."""
    ld2 = LdconvLayer.create(1, layer.c_out, 2, rng=Rng(0))
    net = TinyNet(ld1=layer, ld2=ld2, fc_w=np.zeros((10, 2), dtype=np.float32),
                  fc_b=np.zeros(10, dtype=np.float32))
    save_net(net, path)
    return load_net(path)[0].ld1


# -- the paper's other two channel-mix layouts, as oracles ---------------------
# Written from the paper's description of each layout, independently of the
# layer's single GEMM over the channel-stacked samples.


def mix_conv3d_style(sampled, agg_w):
    """Depth reduction: a (n, 1, 1) window of stride n over the sample axis.

    sampled (B, c_in, n, H, W) is read as a depth-n volume per input channel;
    the one window position sums each depth tap against its kernel slice.
    """
    b_n, c_in, n, h, w = sampled.shape
    out = np.zeros((b_n, agg_w.shape[0], h, w))
    for c in range(c_in):
        for m in range(n):
            out += agg_w[None, :, c, m, None, None] * sampled[:, c, m][:, None].astype(np.float64)
    return out


def mix_column_conv(sampled, agg_w):
    """Width stacking: column j*n + m holds sample m of output column j, then a
    (1, n) window of stride n slides along the widened rows."""
    b_n, c_in, n, h, w = sampled.shape
    wide = np.moveaxis(sampled, 2, 4).reshape(b_n, c_in, h, w * n).astype(np.float64)
    out = np.zeros((b_n, agg_w.shape[0], h, w))
    for j in range(w):
        window = wide[:, :, :, j * n:(j + 1) * n]                  # (B, c_in, H, n)
        out[:, :, :, j] = np.tensordot(window, agg_w, axes=([1, 3], [1, 2])).transpose(0, 2, 1)
    return out


def layout_deviation(layer, x):
    """Worst relative deviation of the layer's output from both layout oracles
    applied to the same samples."""
    y, cache = layer.forward(x)
    bias = 0.0 if layer.agg_b is None else layer.agg_b[None, :, None, None]
    return max(_rel_dev(y.data, oracle(cache.sampled, layer.agg_w) + bias)
               for oracle in (mix_conv3d_style, mix_column_conv))


# -- the offset windows and the post stage, as oracles --------------------------
# The nine strided slice copies, the np.var normalisation and the backward
# formula over cached xhat, z and sig that the layer used before its one-copy
# windows, in-place post stage and slim post cache, kept unchanged; the layer
# must match them bit for bit.


def windows_by_slices(layer, x, h_out, w_out):
    xpp = pad2d(x, 1)
    b_n, c_in = x.shape[:2]
    s = layer.stride
    cols = np.empty((b_n, c_in, 3, 3, h_out, w_out), dtype=x.dtype)
    for kh in range(3):
        for kw in range(3):
            cols[:, :, kh, kw] = xpp[:, :, kh:kh + (h_out - 1) * s + 1:s,
                                     kw:kw + (w_out - 1) * s + 1:s]
    return cols.reshape(b_n, c_in * 9, h_out * w_out)


def post_forward_by_np_var(layer, mixed):
    """y, the cache {mean, inv_std}, and the activations xhat, z and sig."""
    dtype = mixed.dtype
    mean = mixed.mean(axis=(0, 2, 3), keepdims=True)
    var = mixed.var(axis=(0, 2, 3), keepdims=True)
    inv_std = 1.0 / np.sqrt(var + dtype.type(layer_mod._NORM_EPS))
    xhat = (mixed - mean) * inv_std
    z = layer.post_scale[None, :, None, None] * xhat + layer.post_shift[None, :, None, None]
    sig = 1.0 / (1.0 + np.exp(-z))
    y = z * sig
    return y.astype(dtype, copy=False), {"mean": mean, "inv_std": inv_std}, (xhat, z, sig)


def post_backward_from_activations(layer, xhat, inv_std, z, sig, upstream):
    dz = 1.0 - sig                     # dz = upstream * sig * (1 + z * (1 - sig))
    dz *= z
    dz += 1.0
    dz *= sig
    dz *= upstream
    grad_shift = dz.sum(axis=(0, 2, 3))
    grad_scale = np.einsum("bchw,bchw->c", dz, xhat)
    m = dz.shape[0] * dz.shape[2] * dz.shape[3]
    dz -= grad_shift[None, :, None, None] / m
    dz -= xhat * (grad_scale[None, :, None, None] / m)
    dz *= layer.post_scale[None, :, None, None] * inv_std
    return dz.astype(upstream.dtype, copy=False), grad_scale, grad_shift


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _post_case(stride, padding, dtype):
    """A randomised post-stage layer, its input zero-padded by padding, and its rng."""
    rng = Rng(stride * 10 + padding)
    layer = _randomized(LdconvLayer.create(5, 3, 4, stride=stride,
                                           post="normalize+activation", rng=rng, dtype=dtype), rng)
    layer.post_scale = rng.stream("scale").uniform(0.5, 1.5, size=4).astype(dtype)
    layer.post_shift = rng.stream("shift").uniform(-0.5, 0.5, size=4).astype(dtype)
    x = rand_uniform((2, 3, 9, 8), rng, lo=-1.0, hi=1.0, dtype=dtype)
    return layer, Tensor4(pad2d(x.data, padding)), rng


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_windows_and_post_stage_match_their_oracles_bitwise(stride, padding, dtype):
    layer, x, rng = _post_case(stride, padding, dtype)
    h_out, w_out = (9 + 2 * padding - 1) // stride + 1, (8 + 2 * padding - 1) // stride + 1
    assert _same_bits(layer._windows(x.data, h_out, w_out),
                      windows_by_slices(layer, x.data, h_out, w_out))

    _, cache = layer.forward(x)
    mixed = layer.aggregate(cache.sampled)
    mixed += rng.stream("bias").uniform(-2, 2, size=(1, 4, 1, 1)).astype(dtype)
    y, post_cache = layer._post_forward(mixed.copy())   # it centres its argument in place
    y_ref, ref_cache, _ = post_forward_by_np_var(layer, mixed)
    assert _same_bits(y, y_ref)
    assert post_cache.keys() == ref_cache.keys() == {"mean", "inv_std"}
    for name, arr in ref_cache.items():
        assert _same_bits(post_cache[name], arr), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_post_backward_from_the_slim_cache_matches_the_activation_formula_bitwise(
        stride, padding, dtype):
    # backward rebuilds xhat, z and sig from the samples, the mean and inv_std
    layer, x, rng = _post_case(stride, padding, dtype)
    y, cache = layer.forward(x)
    up = rng.stream("up").uniform(-1, 1, size=y.dims).astype(dtype)
    _, ref_cache, (xhat, z, sig) = post_forward_by_np_var(layer, layer.aggregate(cache.sampled))
    want = post_backward_from_activations(layer, xhat, ref_cache["inv_std"], z, sig, up)
    got = layer._post_backward(cache, up)
    assert len(got) == len(want)
    for name, g, w in zip(("input", "scale", "shift"), got, want):
        assert _same_bits(g, w), name


# -- offsets and grid -----------------------------------------------------------


def test_zero_weights_give_zero_offsets():
    layer = LdconvLayer.create(5, 3, 4)
    field = _offsets(layer, rand_uniform((2, 3, 8, 8), Rng(0)))
    assert field.data.shape == (2, 10, 8, 8)
    assert np.all(field.data == 0.0)


def test_offset_field_dims_with_stride():
    layer = LdconvLayer.create(5, 3, 4, stride=2)
    field = _offsets(layer, rand_uniform((1, 3, 8, 8), Rng(0)))
    assert field.data.shape == (1, 10, 4, 4)


def test_offset_field_validation():
    with pytest.raises(ShapeError):
        OffsetField(n=3, data=np.zeros((1, 5, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="finite"):
        OffsetField(n=1, data=np.full((1, 2, 1, 1), np.nan, dtype=np.float32))


def test_forward_keeps_the_offset_and_grid_arrays_it_builds(monkeypatch):
    # the dataclasses copy writable arrays; the layer hands over read-only ones
    layer = _randomized(LdconvLayer.create(3, 2, 4), Rng(5))
    built = {}

    def recording_field(n, data):
        built["field"] = data
        return OffsetField(n=n, data=data)

    def recording_grid(rows, cols):
        built["rows"], built["cols"] = rows, cols
        return SampleGrid(rows=rows, cols=cols)

    monkeypatch.setattr(layer_mod, "OffsetField", recording_field)
    monkeypatch.setattr(layer_mod, "SampleGrid", recording_grid)
    cache = layer.forward(rand_uniform((2, 2, 6, 6), Rng(1)))[1]
    assert np.shares_memory(cache.offsets.data, built["field"])
    assert np.shares_memory(cache.grid.rows, built["rows"])
    assert np.shares_memory(cache.grid.cols, built["cols"])
    assert not cache.offsets.data.flags.writeable


def test_identity_grid_for_single_point_kernel():
    layer = LdconvLayer.create(1, 1, 1)
    field = _offsets(layer, rand_uniform((1, 1, 4, 4), Rng(0)))
    grid = layer.assemble_grid(field)
    for i in range(4):
        for j in range(4):
            assert grid.rows[0, 0, i, j] == i
            assert grid.cols[0, 0, i, j] == j


def test_default_five_point_footprint():
    layer = LdconvLayer.create(5, 1, 1)
    field = _offsets(layer, rand_uniform((1, 1, 4, 4), Rng(0)))
    grid = layer.assemble_grid(field)
    i, j = 2, 1
    got = {(float(grid.rows[0, n, i, j]), float(grid.cols[0, n, i, j]))
           for n in range(5)}
    assert got == {(i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1), (i + 2, j)}


def test_constant_offset_shifts_grid():
    layer = LdconvLayer.create(3, 1, 1)
    layer.offset_b = np.full(6, 0.5, dtype=np.float32)
    x = Tensor4(np.zeros((1, 1, 3, 3), dtype=np.float32))
    grid = layer.assemble_grid(_offsets(layer, x))
    base = LdconvLayer.create(3, 1, 1)
    base_grid_ = base.assemble_grid(_offsets(base, x))
    assert np.allclose(grid.rows, base_grid_.rows + 0.5)
    assert np.allclose(grid.cols, base_grid_.cols + 0.5)


# -- aggregation ------------------------------------------------------------------


def test_aggregate_identity_mix():
    layer = LdconvLayer.create(1, 3, 3)
    layer.agg_w = np.zeros((3, 3, 1), dtype=np.float32)
    for c in range(3):
        layer.agg_w[c, c, 0] = 1.0
    sampled = Rng(0).stream("s").random((2, 3, 1, 4, 4)).astype(np.float32)
    out = layer.aggregate(sampled)
    assert np.array_equal(out, sampled[:, :, 0])


def test_aggregate_counting_case():
    layer = LdconvLayer.create(3, 2, 4)
    layer.agg_w = np.ones((4, 2, 3), dtype=np.float32)
    layer.agg_b = np.zeros(4, dtype=np.float32)
    out = layer.aggregate(np.ones((1, 2, 3, 2, 2), dtype=np.float32))
    assert np.all(out == 6.0)


def test_aggregate_rejects_bad_sampled_shape():
    layer = LdconvLayer.create(3, 2, 4)
    with pytest.raises(ShapeError):
        layer.aggregate(np.ones((1, 2, 4, 2, 2), dtype=np.float32))


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strategy"):
        replace(LdconvLayer.create(3, 2, 4), strategy="im2col")


@given(
    n=st.integers(min_value=1, max_value=12),
    c_in=st.integers(min_value=1, max_value=8),
    c_out=st.integers(min_value=1, max_value=8),
    h=st.integers(min_value=3, max_value=9),
    w=st.integers(min_value=3, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_strategies_realize_the_same_map(n, c_in, c_out, h, w, seed):
    rng = Rng(seed)
    layer = _randomized(LdconvLayer.create(n, c_in, c_out, rng=rng), rng)
    x = rand_uniform((2, c_in, h, w), rng, stream="x")
    assert layout_deviation(layer, x) < REL_TOL_STRATEGY


# -- forward ----------------------------------------------------------------------


def test_forward_output_dims():
    layer = LdconvLayer.create(5, 16, 32, stride=2)
    y, _ = layer.forward(rand_uniform((2, 16, 32, 32), Rng(1)))
    assert y.dims == (2, 32, 16, 16)


def test_output_without_post_stage_is_the_mix():
    # the mix is fresh, so forward hands it out without a copy
    layer = LdconvLayer.create(3, 2, 4, post="none", rng=Rng(4))
    mixes = []

    def aggregate(sampled, real=layer.aggregate):
        mixes.append(real(sampled))
        return mixes[-1]

    layer.aggregate = aggregate
    y, _ = layer.forward(rand_uniform((2, 2, 6, 6), Rng(1)))
    assert len(mixes) == 1 and np.shares_memory(y.data, mixes[0])


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, 2)])
def test_offsets_match_the_forward_field(stride, padding):
    layer = _randomized(LdconvLayer.create(3, 2, 4, stride=stride), Rng(6))
    x = Tensor4(pad2d(rand_uniform((2, 2, 7, 6), Rng(2)).data, padding))
    field = layer.offsets(x)
    assert field.data.tobytes() == _offsets(layer, x).data.tobytes()


def test_single_point_kernel_is_1x1_conv():
    layer = LdconvLayer.create(1, 3, 4, rng=Rng(2))
    x = rand_uniform((2, 3, 5, 5), Rng(3))
    y, _ = layer.forward(x)
    w = layer.agg_w.reshape(4, 3, 1, 1)
    ref = conv2d_reference(x, w, bias=layer.agg_b)
    assert _rel_dev(y.data, ref.data) < 1e-5


@pytest.mark.parametrize("k", [1, 2, 3])
def test_zero_offsets_match_reference_conv(k):
    n = k * k
    rng = Rng(20 + k)
    layer = LdconvLayer.create(n, 2, 3, rng=rng)
    x = rand_uniform((2, 2, 6, 6), rng, stream="x")
    y, _ = layer.forward(x)
    w = layer.agg_w.reshape(3, 2, k, k)
    ref = conv2d_reference(x, w, bias=layer.agg_b)
    h_ref, w_ref = ref.dims[2], ref.dims[3]
    assert _rel_dev(y.data[:, :, :h_ref, :w_ref], ref.data) < 1e-5


def test_zero_offsets_match_padded_reference_conv():
    rng = Rng(31)
    layer = LdconvLayer.create(9, 2, 3, rng=rng)
    x = rand_uniform((1, 2, 6, 6), rng, stream="x")
    y, _ = layer.forward(Tensor4(pad2d(x.data, 1)))
    w = layer.agg_w.reshape(3, 2, 3, 3)
    ref = conv2d_reference(x, w, bias=layer.agg_b, pad=1)
    h_ref, w_ref = ref.dims[2], ref.dims[3]
    assert _rel_dev(y.data[:, :, :h_ref, :w_ref], ref.data) < 1e-5


def test_forward_linear_in_x_with_frozen_zero_offsets():
    layer = LdconvLayer.create(6, 2, 3, rng=Rng(4))
    assert np.all(layer.agg_b == 0.0)
    gen = Rng(5)
    x = rand_uniform((1, 2, 5, 5), gen, stream="x")
    y = rand_uniform((1, 2, 5, 5), gen, stream="y")
    alpha, beta = 2.0, -0.75
    mixed = Tensor4(np.asarray(alpha * x.data + beta * y.data, dtype=np.float32))
    lhs = layer.forward(mixed)[0].data
    rhs = alpha * layer.forward(x)[0].data + beta * layer.forward(y)[0].data
    assert _rel_dev(lhs, rhs) < 1e-5


def test_forward_input_validation():
    layer = LdconvLayer.create(3, 2, 4)
    with pytest.raises(ShapeError, match="channels"):
        layer.forward(rand_uniform((1, 3, 4, 4), Rng(0)))
    with pytest.raises(ShapeError, match="input batch 0, extent 4x4 is empty"):
        layer.forward(rand_uniform((0, 2, 4, 4), Rng(0)))
    with pytest.raises(ValueError, match="dtype"):
        layer.forward(rand_uniform((1, 2, 4, 4), Rng(0), dtype=np.float64))
    with pytest.raises(TypeError):
        layer.forward(np.zeros((1, 2, 4, 4), dtype=np.float32))


def test_geometry_layer_mismatch():
    with pytest.raises(ShapeError, match="geometry"):
        LdconvLayer.create(4, 1, 1, geometry=gen_initial_coords(5))


# -- backward ---------------------------------------------------------------------


def test_zero_upstream_gives_zero_grads():
    layer = _randomized(LdconvLayer.create(4, 2, 3, rng=Rng(6)), Rng(6))
    x = rand_uniform((1, 2, 5, 5), Rng(7))
    y, cache = layer.forward(x)
    grads = layer.backward(cache, Tensor4(np.zeros_like(y.data)))
    assert np.all(grads.x.data == 0.0)
    assert np.all(grads.offset_w == 0.0)
    assert np.all(grads.offset_b == 0.0)
    assert np.all(grads.agg_w == 0.0)
    assert np.all(grads.agg_b == 0.0)


def test_backward_rejects_wrong_upstream_shape():
    layer = LdconvLayer.create(3, 2, 4)
    x = rand_uniform((1, 2, 4, 4), Rng(0))
    _, cache = layer.forward(x)
    with pytest.raises(ShapeError, match="upstream"):
        layer.backward(cache, Tensor4(np.zeros((1, 4, 3, 3), dtype=np.float32)))


def test_gradients_match_finite_differences_small_case():
    results = check_layer_gradients(dims=(1, 2, 5, 5), n=3, seed=0, dtype=np.float64)
    for res in results:
        assert res.passed, f"{res.group}: {res.max_rel_err:.3e} > {res.tol}"


def test_gradients_with_post_stage():
    results = check_layer_gradients(dims=(2, 3, 6, 6), n=3, seed=1, dtype=np.float64,
                                    post="normalize+activation")
    groups = {res.group for res in results}
    assert "layer/post_scale" in groups and "layer/post_shift" in groups
    for res in results:
        assert res.passed, f"{res.group}: {res.max_rel_err:.3e} > {res.tol}"


@pytest.mark.parametrize(("stride", "padding", "post"), [
    (2, 0, "none"), (3, 0, "none"), (1, 1, "none"), (1, 2, "none"),
    (2, 1, "normalize+activation"), (3, 2, "normalize+activation"),
])
def test_gradients_at_strides_and_padding(stride, padding, post):
    # The layer has no padding: padding only widens the input to the extent a
    # layer padded by it samples.  The post stage is curved, so there the
    # central difference's truncation error (~eps^2, 7e-8 at the default 1e-4)
    # dominates; 1e-5 cuts it 100x.
    eps = 1e-4 if post == "none" else 1e-5
    side = 7 + 2 * padding
    results = check_layer_gradients(dims=(2, 3, side, side), n=5, seed=stride + 10 * padding,
                                    eps=eps, dtype=np.float64, stride=stride, post=post)
    for res in results:
        assert res.passed, f"{res.group}: {res.max_rel_err:.3e} > {res.tol}"


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_backward_without_input_grad(stride, padding):
    for post in ("none", "normalize+activation"):
        for dtype in (np.float32, np.float64):
            rng = Rng(stride + 10 * padding)
            layer = _randomized(LdconvLayer.create(5, 3, 4, stride=stride, post=post, rng=rng),
                                rng).astype(dtype)
            x = rand_uniform((2, 3, 8, 7), rng, stream="x", dtype=dtype)
            y, cache = layer.forward(Tensor4(pad2d(x.data, padding)))
            up = Tensor4(rng.stream("up").uniform(-1, 1, size=y.dims).astype(dtype))
            full = layer.backward(cache, up)
            skip = layer.backward(cache, up, input_grad=False)
            assert full.x is not None and skip.x is None
            for name in layer.params():
                got, want = getattr(skip, name), getattr(full, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
                    f"{post} {np.dtype(dtype)} {name}"


def test_sabotage_is_detected():
    results = check_layer_gradients(dims=(1, 2, 5, 5), n=3, seed=0,
                                    dtype=np.float64, sabotage=True)
    bad = [res for res in results if not res.passed]
    assert any(res.group == "layer/offset_w" for res in bad)


def test_agg_weight_grads_match_reference_conv_grads():
    # With offsets frozen at zero the layer is a 3x3 top-left convolution, so
    # the mixing-weight gradient must equal the convolution weight gradient
    # computed by direct summation.  Upstream is zero outside the window
    # positions that exist in the valid-extent reference output.
    rng = Rng(8)
    layer = LdconvLayer.create(9, 2, 3, rng=rng)
    x = rand_uniform((2, 2, 6, 6), rng, stream="x")
    y, cache = layer.forward(x)
    up = np.zeros(y.dims, dtype=np.float32)
    window = rng.stream("up").uniform(-1, 1, size=(2, 3, 4, 4)).astype(np.float32)
    up[:, :, :4, :4] = window
    grads = layer.backward(cache, Tensor4(up))

    ref = np.zeros((3, 2, 3, 3), dtype=np.float64)
    for o in range(3):
        for c in range(2):
            for dh in range(3):
                for dw in range(3):
                    ref[o, c, dh, dw] = np.sum(
                        window[:, o].astype(np.float64)
                        * x.data[:, c, dh:dh + 4, dw:dw + 4])
    got = grads.agg_w.reshape(3, 2, 3, 3)
    assert _rel_dev(got, ref.astype(np.float32)) < 1e-5


# -- audits ------------------------------------------------------------------------


def test_param_count_hand_audit():
    layer = LdconvLayer.create(5, 16, 32)
    assert layer.param_count() == 2 * 5 * 16 * 9 + 2 * 5 + 32 * 16 * 5 + 32
    assert layer.param_count() == 4042


def test_param_count_growth_is_linear():
    counts = [LdconvLayer.create(n, 16, 32).param_count() for n in range(1, 17)]
    deltas = {b - a for a, b in zip(counts, counts[1:])}
    assert deltas == {2 * 16 * 9 + 2 + 32 * 16}
    assert deltas == {802}


def test_param_count_variants():
    post = LdconvLayer.create(5, 16, 32, post="normalize+activation")
    # the post stage drops the aggregation bias and adds scale+shift
    assert post.param_count() == 4042 - 32 + 2 * 32
    assert list(post.params()) == ["offset_w", "offset_b", "agg_w", "post_scale",
                                   "post_shift"]
    assert list(LdconvLayer.create(5, 16, 32).params()) == ["offset_w", "offset_b",
                                                            "agg_w", "agg_b"]
    with pytest.raises(ValueError, match="bias"):
        LdconvLayer(**{**vars(post), "agg_b": np.zeros(32, dtype=np.float32)})


def test_flops_estimate_formula():
    layer = LdconvLayer.create(5, 16, 32, stride=2)
    h_out = w_out = (32 - 1) // 2 + 1
    cells = h_out * w_out
    expected = (2 * 5 * 16 * 9 + 8 * 16 * 5 + 32 * 16 * 5) * cells
    assert layer.flops_estimate(32, 32) == expected


# -- dtype and checkpoints -----------------------------------------------------------


def test_astype_round_trip_agrees():
    layer = _randomized(LdconvLayer.create(4, 2, 3, rng=Rng(9)), Rng(9))
    x32 = rand_uniform((1, 2, 5, 5), Rng(10))
    y32 = layer.forward(x32)[0].data
    y64 = layer.astype(np.float64).forward(x32.astype(np.float64))[0].data
    assert _rel_dev(y32.astype(np.float64), y64) < 1e-5


def test_layer_checkpoint_round_trip(tmp_path):
    layer = _randomized(
        LdconvLayer.create(5, 2, 3, stride=2, post="normalize+activation", rng=Rng(11)),
        Rng(11))
    path = tmp_path / "layer.ldt"
    back = _round_trip(layer, path)
    assert (back.n, back.c_in, back.c_out, back.stride) == (5, 2, 3, 2)
    assert load_net(path)[1]["ld1"]["padding"] == 0   # the format keeps the key
    assert back.post == "normalize+activation"
    assert back.geometry.coords == layer.geometry.coords
    x = rand_uniform((2, 2, 6, 6), Rng(12))
    assert np.array_equal(layer.forward(x)[0].data, back.forward(x)[0].data)
    records = read_tensors(path)
    del records["ld1.post_scale"]
    write_tensors(path, records)
    with pytest.raises(ValueError, match="missing record 'ld1.post_scale'"):
        load_net(path)


def test_layer_checkpoint_custom_geometry(tmp_path):
    geo = KernelGeometry(((0, 1), (1, 0), (1, 1), (1, 2), (2, 1)))
    layer = LdconvLayer.create(5, 1, 2, geometry=geo, rng=Rng(13))
    assert "coords" not in layer_sidecar(LdconvLayer.create(5, 1, 2))
    back = _round_trip(layer, tmp_path / "plus.ldt")
    assert back.geometry.coords == geo.coords


# -- sampler blocks ---------------------------------------------------------------
# The sampler works through runs of whole images of at most sampler.BLOCK_BYTES
# of samples.  Every block writes its own slice of the full-size outputs, and
# each input-gradient bin belongs to one image, so the block size changes no bit.


def _fwd_bwd_outputs(layer, x, up, input_grad):
    y, cache = layer.forward(x)
    grads = layer.backward(cache, up, input_grad=input_grad)
    out = {"y": y.data, "x": None if grads.x is None else grads.x.data}
    out.update((name, getattr(grads, name)) for name in layer.params())
    return out


def _assert_same_bits(got, want):
    for name in want:
        if want[name] is None:
            assert got[name] is None, name
        else:
            assert got[name].dtype == want[name].dtype, name
            assert got[name].tobytes() == want[name].tobytes(), name


def _block_case(stride, padding, post, dtype, seed, dims=(3, 3, 8, 7)):
    """A layer, its input zero-padded by padding, and an upstream."""
    rng = Rng(seed)
    layer = _randomized(LdconvLayer.create(5, dims[1], 4, stride=stride, post=post, rng=rng),
                        rng).astype(dtype)
    x = Tensor4(pad2d(rand_uniform(dims, rng, stream="x", dtype=dtype).data, padding))
    y_dims = layer.forward(x)[0].dims
    up = Tensor4(rng.stream("up").uniform(-1, 1, size=y_dims).astype(dtype))
    return layer, x, up


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("post", ["none", "normalize+activation"])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
def test_one_image_per_block_gives_the_same_bits(monkeypatch, stride, padding, post, dtype,
                                                 input_grad):
    layer, x, up = _block_case(stride, padding, post, dtype, seed=stride + 10 * padding)
    whole = _fwd_bwd_outputs(layer, x, up, input_grad)       # one block at this size
    monkeypatch.setattr(sampler_mod, "BLOCK_BYTES", 1)
    _assert_same_bits(_fwd_bwd_outputs(layer, x, up, input_grad), whole)


@pytest.mark.parametrize("block_bytes", [None, 1], ids=["one-block", "many-blocks"])
def test_no_output_reads_uninitialised_memory(monkeypatch, block_bytes):
    # np.empty and np.empty_like hand out NaN (or the integer minimum): any
    # element read before it is written changes an output's bits
    cases = [_block_case(2, 1, post, np.float32, seed=3) for post in ("none", "normalize+activation")]
    want = [_fwd_bwd_outputs(*case, input_grad) for case in cases for input_grad in (True, False)]
    if block_bytes is not None:
        monkeypatch.setattr(sampler_mod, "BLOCK_BYTES", block_bytes)
    real_empty, real_empty_like = np.empty, np.empty_like

    def poisoned(arr):
        if arr.dtype.kind == "f":
            arr.fill(np.nan)
        elif arr.dtype.kind in "iu":
            arr.fill(np.iinfo(arr.dtype).min)
        return arr

    monkeypatch.setattr(np, "empty", lambda *a, **k: poisoned(real_empty(*a, **k)))
    monkeypatch.setattr(np, "empty_like", lambda *a, **k: poisoned(real_empty_like(*a, **k)))
    got = [_fwd_bwd_outputs(*case, input_grad) for case in cases for input_grad in (True, False)]
    for g, w in zip(got, want):
        _assert_same_bits(g, w)


@pytest.mark.parametrize("input_grad", [True, False])
def test_backward_calls_the_sampler_once_per_block(monkeypatch, input_grad):
    # perfbench's tracer wraps ldconv.layer.bilinear_backward and counts the
    # samples of the SampleGrid each call gets: one call per block of whole
    # images, its grid that block's slice, so the counts add up to the batch's
    layer, x, up = _block_case(2, 0, "none", np.float32, seed=5)
    _, cache = layer.forward(x)
    grids = []
    real = layer_mod.bilinear_backward

    def recording(x_blk, grid, *args, **kwargs):
        grids.append(grid)
        return real(x_blk, grid, *args, **kwargs)

    monkeypatch.setattr(sampler_mod, "BLOCK_BYTES", 1)
    monkeypatch.setattr(layer_mod, "bilinear_backward", recording)
    layer.backward(cache, up, input_grad=input_grad)
    assert len(grids) == x.dims[0] == 3
    for b, grid in enumerate(grids):
        assert isinstance(grid, SampleGrid) and grid.dims[0] == 1
        assert np.array_equal(grid.rows, cache.grid.rows[b:b + 1])
        assert np.array_equal(grid.cols, cache.grid.cols[b:b + 1])
    assert sum(grid.rows.size for grid in grids) == cache.grid.rows.size


def test_stress_shape_forward_backward_peak_memory():
    # (8,16,32,32), n=9: one image's (P, C) samples are 576 KiB, so the
    # sampler and the layer backward around it work one image at a time.  The
    # sampler's full-batch gather, weighting and scatter buffers took the
    # traced peak to 22.9 MiB; the backward's full-batch samples' gradient,
    # window matrix and window gradient to 13.9 MiB.  It reads 10.7 MiB.
    rng = Rng(0)
    layer = _randomized(LdconvLayer.create(9, 16, 32, rng=rng), rng)
    x = rand_uniform((8, 16, 32, 32), rng, stream="x")
    up = Tensor4(rng.stream("up").uniform(-1, 1, size=(8, 32, 32, 32)).astype(np.float32))
    layer.backward(layer.forward(x)[1], up)
    tracemalloc.start()
    try:
        _, cache = layer.forward(x)
        layer.backward(cache, up)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20
