"""Tensor container, seeded streams, and the direct reference convolution."""

import numpy as np
import pytest

from ldconv.tensor import (
    Rng,
    ShapeError,
    Tensor4,
    conv2d_reference,
    pad2d,
    rand_uniform,
    read_tensors,
    write_tensors,
)


# -- rng ----------------------------------------------------------------------


def test_rng_same_seed_same_stream_identical():
    a = Rng(42).stream("weights").random(16)
    b = Rng(42).stream("weights").random(16)
    assert np.array_equal(a, b)


def test_rng_streams_differ():
    a = Rng(42).stream("weights").random(16)
    b = Rng(42).stream("bias").random(16)
    assert np.any(a != b)


def test_rng_streams_are_order_independent():
    rng = Rng(7)
    first_a = rng.stream("alpha").random(8)
    first_b = rng.stream("beta").random(8)
    # Interleave the other way round; per-stream sequences must not move.
    rng2 = Rng(7)
    second_b = rng2.stream("beta").random(8)
    second_a = rng2.stream("alpha").random(8)
    assert np.array_equal(first_a, second_a)
    assert np.array_equal(first_b, second_b)


def test_rng_seeds_differ():
    assert np.any(Rng(1).stream().random(8) != Rng(2).stream().random(8))


# -- Tensor4 ------------------------------------------------------------------


def test_tensor_requires_rank4_float():
    with pytest.raises(ShapeError):
        Tensor4(np.zeros((2, 3, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        Tensor4(np.zeros((1, 1, 2, 2), dtype=np.int32))


def test_tensor_is_immutable_and_detached():
    src = np.ones((1, 1, 2, 2), dtype=np.float32)
    t = Tensor4(src)
    src[0, 0, 0, 0] = 99.0
    assert t.data[0, 0, 0, 0] == 1.0
    assert not t.data.flags.writeable
    with pytest.raises(ValueError):
        t.data[0, 0, 0, 0] = 5.0


def test_flat_index_formula():
    # storage is row-major with width fastest, whatever the source layout
    source = np.arange(2 * 3 * 4 * 5, dtype=np.float32).reshape(5, 4, 3, 2).transpose()
    t = Tensor4(source)
    memory = t.data.ravel(order="K")
    for b, c, h, w in ((0, 0, 0, 0), (1, 2, 3, 4), (1, 0, 2, 1), (0, 2, 0, 3)):
        assert memory[((b * 3 + c) * 4 + h) * 5 + w] == source[b, c, h, w]


def test_rand_uniform_contract():
    t = rand_uniform((2, 3, 4, 4), Rng(5), lo=-1.0, hi=2.0)
    assert np.all(t.data >= -1.0) and np.all(t.data < 2.0)
    again = rand_uniform((2, 3, 4, 4), Rng(5), lo=-1.0, hi=2.0)
    assert np.array_equal(t.data, again.data)
    other = rand_uniform((2, 3, 4, 4), Rng(5), lo=-1.0, hi=2.0, stream="other")
    assert np.any(t.data != other.data)
    with pytest.raises(ValueError, match="invalid range"):
        rand_uniform((1, 1, 1, 1), Rng(0), lo=1.0, hi=1.0)


def test_pad2d():
    x = np.ones((1, 1, 2, 2), dtype=np.float32)
    padded = pad2d(x, 1)
    assert padded.shape == (1, 1, 4, 4)
    assert padded[0, 0].sum() == 4.0
    assert padded[0, 0, 0].sum() == 0.0
    assert pad2d(x, 0) is x
    data = np.random.default_rng(0).standard_normal((2, 3, 5, 4)).astype(np.float32)
    for pad in (1, 2):
        expected = np.pad(data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        got = pad2d(data, pad)
        assert got.dtype == data.dtype
        assert got.tobytes() == expected.tobytes() and got.shape == expected.shape


# -- reference convolution ------------------------------------------------------


def test_conv_reference_one_by_one_scales():
    x = rand_uniform((2, 3, 4, 4), Rng(1))
    w = np.zeros((3, 3, 1, 1), dtype=np.float32)
    for c in range(3):
        w[c, c, 0, 0] = 2.0
    y = conv2d_reference(x, w)
    assert np.allclose(y.data, 2.0 * x.data, rtol=1e-6)


def test_conv_reference_sum_of_ones():
    x = Tensor4(np.ones((1, 1, 3, 3), dtype=np.float32))
    w = np.ones((1, 1, 3, 3), dtype=np.float32)
    y = conv2d_reference(x, w)
    assert y.dims == (1, 1, 1, 1)
    assert y.data[0, 0, 0, 0] == 9.0


def test_conv_reference_hand_summed_strided_case():
    x = Tensor4(np.arange(1, 17, dtype=np.float32).reshape(1, 1, 4, 4))
    w = np.ones((1, 1, 2, 2), dtype=np.float32)
    y = conv2d_reference(x, w, stride=2)
    assert np.array_equal(y.data[0, 0], [[14.0, 22.0], [46.0, 54.0]])


def test_conv_reference_bias_and_anchor():
    x = Tensor4(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
    w = np.zeros((1, 1, 3, 3), dtype=np.float32)
    w[0, 0, 1, 1] = 1.0  # pick out the window centre
    # with pad 1 the top-left-anchored window of output (i, j) is centred on (i, j)
    y = conv2d_reference(x, w, bias=[0.5], pad=1)
    assert y.dims == (1, 1, 4, 4)
    assert np.array_equal(y.data[0, 0], x.data[0, 0] + 0.5)


def test_conv_reference_linearity():
    gen = Rng(3)
    x = rand_uniform((2, 2, 5, 5), gen, stream="x")
    y = rand_uniform((2, 2, 5, 5), gen, stream="y")
    w = rand_uniform((1, 2, 3, 3), gen, lo=-1.0, hi=1.0, stream="w").data
    alpha, beta = 0.7, -1.3
    mixed = Tensor4(np.asarray(alpha * x.data + beta * y.data, dtype=np.float32))
    lhs = conv2d_reference(mixed, w).data
    rhs = alpha * conv2d_reference(x, w).data + beta * conv2d_reference(y, w).data
    assert np.allclose(lhs, rhs, rtol=1e-5, atol=1e-6)


def test_conv_reference_translation_consistency():
    gen = Rng(9)
    x = rand_uniform((1, 1, 6, 6), gen, stream="x").data
    shifted = np.zeros_like(x)
    shifted[:, :, :, 1:] = x[:, :, :, :-1]  # shift right by one pixel
    w = rand_uniform((1, 1, 3, 3), gen, lo=-1.0, hi=1.0, stream="w").data
    y = conv2d_reference(Tensor4(x), w).data
    y_shifted = conv2d_reference(Tensor4(shifted), w).data
    assert np.array_equal(y_shifted[:, :, :, 1:], y[:, :, :, :-1])


def test_conv_reference_validation():
    x = Tensor4(np.zeros((1, 2, 4, 4), dtype=np.float32))
    with pytest.raises(ShapeError, match="c_in"):
        conv2d_reference(x, np.ones((1, 3, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="stride"):
        conv2d_reference(x, np.ones((1, 2, 2, 2), dtype=np.float32), stride=0)
    with pytest.raises(ShapeError, match="does not fit"):
        conv2d_reference(x, np.ones((1, 2, 5, 5), dtype=np.float32))
    with pytest.raises(ShapeError, match="bias"):
        conv2d_reference(x, np.ones((1, 2, 2, 2), dtype=np.float32), bias=[1.0, 2.0])


# -- container ------------------------------------------------------------------


def test_container_round_trip(tmp_path):
    path = tmp_path / "weights.ldt"
    tensors = {
        "a": rand_uniform((2, 3, 4, 5), Rng(0), stream="a"),
        "with unicode Ω": rand_uniform((1, 1, 1, 7), Rng(0), lo=-2.0, hi=2.0),
    }
    write_tensors(path, tensors)
    back = read_tensors(path)
    assert list(back) == list(tensors)
    for name in tensors:
        assert back[name].dims == tensors[name].dims
        assert np.array_equal(back[name].data, tensors[name].data)


def test_container_bad_magic(tmp_path):
    path = tmp_path / "bad.ldt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_tensors(path)


def test_container_truncation(tmp_path):
    path = tmp_path / "weights.ldt"
    write_tensors(path, {"a": Tensor4(np.zeros((1, 1, 2, 2), dtype=np.float32))})
    blob = path.read_bytes()
    clipped = tmp_path / "clipped.ldt"
    clipped.write_bytes(blob[:-5])
    with pytest.raises(ValueError, match="truncated"):
        read_tensors(clipped)


def test_container_rejects_non_tensor(tmp_path):
    with pytest.raises(TypeError):
        write_tensors(tmp_path / "x.ldt", {"a": np.zeros((1, 1, 1, 1))})
