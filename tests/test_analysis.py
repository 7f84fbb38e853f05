"""Offset statistics (AO) and the parameter-growth audit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldconv.analysis import (
    IncompatibleCheckpointError,
    ao_csv,
    average_offset,
    growth_audit,
    growth_csv,
    shape_ao_compare,
)
from ldconv.layer import OffsetField
from ldconv.tensor import Rng, rand_uniform
from ldconv.training import TinyNet, TrainConfig, save_net


def _field(values, n):
    return OffsetField(n=n, data=np.asarray(values, dtype=np.float32))


def _random_field(seed, b=2, n=3, h=4, w=4):
    data = Rng(seed).stream("off").uniform(-2, 2, size=(b, 2 * n, h, w))
    return OffsetField(n=n, data=data.astype(np.float32))


# -- AO metric ------------------------------------------------------------------


def test_ao_zero_offsets():
    report = average_offset(_field(np.zeros((1, 6, 3, 3)), 3))
    assert np.all(report.per_position == 0.0)
    assert report.mean == 0.0 and report.std == 0.0


def test_ao_hand_case():
    # offsets [1, -1, 2, -2] at one position: (1+1+2+2)/4 = 1.5 exactly
    report = average_offset(_field([[[[1.0]], [[-1.0]], [[2.0]], [[-2.0]]]], 2))
    assert report.per_position[0, 0, 0] == 1.5
    assert report.mean == 1.5


def test_ao_shapes_and_reductions():
    field = _random_field(0)
    report = average_offset(field)
    assert report.per_position.shape == (2, 4, 4)
    assert report.position_mean.shape == (4, 4)
    assert report.per_sample_mean.shape == (2,)
    assert np.all(report.per_position >= 0.0)
    assert report.mean == pytest.approx(report.per_position.mean())
    summary = report.summary()
    assert set(summary) == {"mean", "std", "per_sample_mean", "position_mean"}


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_ao_channel_permutation_is_bitwise_invariant(seed):
    field = _random_field(seed)
    perm = Rng(seed).stream("perm").permutation(field.data.shape[1])
    shuffled = OffsetField(n=field.n, data=np.ascontiguousarray(field.data[:, perm]))
    a = average_offset(field).per_position
    b = average_offset(shuffled).per_position
    assert np.array_equal(a, b)


@given(exponent=st.integers(min_value=-6, max_value=6), sign=st.sampled_from([-1.0, 1.0]))
@settings(max_examples=26)
def test_ao_power_of_two_scaling_is_exact(exponent, sign):
    field = _random_field(1)
    c = sign * float(2.0 ** exponent)
    scaled = OffsetField(n=field.n,
                         data=np.asarray(c * field.data, dtype=np.float32))
    a = average_offset(scaled).per_position
    b = abs(c) * average_offset(field).per_position
    assert np.array_equal(a, np.asarray(b, dtype=np.float32))


def test_ao_general_scaling_is_close():
    field = _random_field(2)
    base = average_offset(field).per_position
    for c in (0.3, -1.7, 2.5e-3):
        scaled = OffsetField(n=field.n,
                             data=np.asarray(c * field.data, dtype=np.float32))
        got = average_offset(scaled).per_position
        assert np.allclose(got, abs(c) * base, rtol=1e-5)


def test_ao_csv_layout():
    report = average_offset(_field([[[[1.0]], [[3.0]]]], 1))
    text = ao_csv(report)
    lines = text.splitlines()
    assert lines[0] == "b,i,j,ao"
    assert lines[1] == "0,0,0,2.0"
    assert text.endswith("\n")


# -- growth audit -----------------------------------------------------------------


def test_growth_audit_constant_delta():
    rows = growth_audit(16, 32, range(1, 17))
    assert [row.n for row in rows] == list(range(1, 17))
    assert rows[0].delta_params is None
    deltas = {row.delta_params for row in rows[1:]}
    assert deltas == {2 * 16 * 9 + 2 + 32 * 16}


def test_growth_audit_quadratic_reference_column():
    rows = growth_audit(4, 8, [1, 4, 9, 16])
    assert [row.std_k for row in rows] == [1, 2, 3, 4]
    assert [row.std_params for row in rows] == [8 * 4 * k * k for k in (1, 2, 3, 4)]


def test_growth_audit_single_row():
    rows = growth_audit(16, 32, [1])
    assert len(rows) == 1
    assert rows[0].delta_params is None


def test_growth_audit_validation():
    with pytest.raises(ValueError, match="empty"):
        growth_audit(4, 8, [])
    with pytest.raises(ValueError, match=">= 1"):
        growth_audit(4, 8, [0, 1])
    with pytest.raises(ValueError, match="ascending"):
        growth_audit(4, 8, [3, 2])


def test_growth_csv_layout():
    text = growth_csv(growth_audit(16, 32, [1, 2]))
    lines = text.splitlines()
    assert lines[0] == "n,params,flops,delta_params,std_k,std_params"
    first = lines[1].split(",")
    assert first[0] == "1" and first[3] == ""   # no delta on the first row
    second = lines[2].split(",")
    assert second[3] == "802"


# -- checkpoint comparison ----------------------------------------------------------


def _save_checkpoint(tmp_path, name, seed):
    cfg = TrainConfig()
    net = TinyNet.create(n1=cfg.n1, n2=cfg.n2, post=cfg.post, rng=Rng(seed))
    path = tmp_path / name
    save_net(net, path, cfg)
    return path


def test_shape_ao_compare_identical_checkpoints(tmp_path):
    paths = [_save_checkpoint(tmp_path, "a.ldt", 0),
             _save_checkpoint(tmp_path, "b.ldt", 0)]
    probe = rand_uniform((2, 1, 28, 28), Rng(1))
    reports = shape_ao_compare(paths, probe)
    assert len(reports) == 2
    assert np.array_equal(reports[0][1].per_position, reports[1][1].per_position)


def test_shape_ao_compare_rejects_architecture_mismatch(tmp_path):
    small = tmp_path / "small.ldt"
    cfg = TrainConfig(n1=3, n2=3)
    save_net(TinyNet.create(n1=3, n2=3, post=cfg.post, rng=Rng(0)), small, cfg)
    big = _save_checkpoint(tmp_path, "big.ldt", 0)
    probe = rand_uniform((1, 1, 28, 28), Rng(1))
    with pytest.raises(IncompatibleCheckpointError):
        shape_ao_compare([small, big], probe)


def test_shape_ao_compare_requires_paths():
    with pytest.raises(ValueError, match="no checkpoints"):
        shape_ao_compare([], rand_uniform((1, 1, 28, 28), Rng(0)))
