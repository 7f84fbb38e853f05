"""Kernel geometry: coordinate generator vs an independent construction.

The reference construction below was written first, straight from the
published pseudocode for the generator, using a different decomposition
(repeat/tile of index vectors) than the library's nested loop.  Keeping the
two routes independent is the point: agreement is evidence, not tautology.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldconv.geometry import (
    MAX_COORD,
    KernelGeometry,
    ShapeFileError,
    base_grid,
    gen_initial_coords,
    load_custom_shape,
)
from ldconv.layer import LdconvLayer
from ldconv.tensor import ShapeError, Tensor4, pad2d


def coords_by_direct_construction(n):
    """Reference route: near-square block built from repeated index vectors."""
    base = round(math.sqrt(n))
    full_rows = n // base
    remainder = n % base
    rows = np.repeat(np.arange(full_rows), base)
    cols = np.tile(np.arange(base), full_rows)
    if remainder:
        rows = np.concatenate([rows, np.full(remainder, full_rows)])
        cols = np.concatenate([cols, np.arange(remainder)])
    return list(zip(rows.tolist(), cols.tolist()))


# -- generator ----------------------------------------------------------------


@pytest.mark.parametrize(
    ("n", "expected"),
    [
        (1, [(0, 0)]),
        (2, [(0, 0), (1, 0)]),
        (3, [(0, 0), (0, 1), (1, 0)]),
        (5, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]),
        (7, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0)]),
        (9, [(r, c) for r in range(3) for c in range(3)]),
    ],
)
def test_generator_known_layouts(n, expected):
    assert list(gen_initial_coords(n).coords) == expected


def test_generator_matches_direct_construction_1_to_64():
    for n in range(1, 65):
        assert list(gen_initial_coords(n).coords) == coords_by_direct_construction(n)


def test_square_n_gives_square_block():
    for k in (1, 2, 3, 4, 5):
        got = list(gen_initial_coords(k * k).coords)
        assert got == [(r, c) for r in range(k) for c in range(k)]


@given(st.integers(min_value=1, max_value=256))
def test_generator_cardinality_and_distinctness(n):
    geo = gen_initial_coords(n)
    assert geo.n == n
    assert len(set(geo.coords)) == n
    assert all(r >= 0 and c >= 0 for r, c in geo.coords)


@given(st.integers(min_value=1, max_value=256))
def test_generator_agrees_with_direct_construction(n):
    assert list(gen_initial_coords(n).coords) == coords_by_direct_construction(n)


def test_generator_rejects_nonpositive():
    with pytest.raises(ValueError):
        gen_initial_coords(0)
    with pytest.raises(ValueError):
        gen_initial_coords(-3)


# -- KernelGeometry validation --------------------------------------------------


def test_geometry_rejects_duplicates_and_negatives():
    with pytest.raises(ShapeFileError, match="duplicate coordinate"):
        KernelGeometry(((0, 0), (0, 0)))
    with pytest.raises(ShapeFileError, match="negative coordinate"):
        KernelGeometry(((0, 0), (-1, 2)))


def test_geometry_rejects_fractional():
    with pytest.raises(ValueError, match="fractional"):
        KernelGeometry(((0, 0), (0.5, 1)))


@pytest.mark.parametrize(("pair", "message"), [
    ((MAX_COORD + 1, 0), f"above {MAX_COORD}"), ((0, 10**400), f"above {MAX_COORD}"),
    ((float("inf"), 0), f"above {MAX_COORD}"),
    # float() of it raised OverflowError: negatives are refused before it
    ((-10**400, 0), "negative coordinate"),
], ids=["above-bound", "401-digits", "inf", "minus-401-digits"])
def test_geometry_rejects_coordinates_above_the_bound(pair, message):
    with pytest.raises(ShapeFileError, match=message) as caught:
        KernelGeometry(((0, 0), pair))
    assert caught.value.index == 1


def test_geometry_accepts_the_bound_and_keeps_it_in_float32():
    geo = KernelGeometry(((0, 0), (MAX_COORD, MAX_COORD - 1)))
    assert geo.rows().astype(np.float32).astype(np.int64).tolist() == [0, MAX_COORD]
    assert geo.cols().astype(np.float32).astype(np.int64).tolist() == [0, MAX_COORD - 1]


def test_geometry_row_and_col_vectors():
    geo = KernelGeometry(((0, 0), (2, 1), (1, 3)))
    assert geo.rows().tolist() == [0, 2, 1]
    assert geo.cols().tolist() == [0, 1, 3]


# -- shape files ----------------------------------------------------------------


SHAPE_TEXT = """\
# a plus-shaped 5-point kernel
1 0
0 1
1 1
2 1
1 2
"""


def test_load_custom_shape_parses_comments_and_blanks():
    geo = load_custom_shape(SHAPE_TEXT)
    assert geo.coords == ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2))


def test_load_custom_shape_count_mismatch():
    # the point count is checked where the shape meets a layer of a given n
    with pytest.raises(ShapeError, match="geometry has 5 points, layer expects 4"):
        LdconvLayer.create(4, 1, 1, geometry=load_custom_shape(SHAPE_TEXT))


def test_load_custom_shape_bad_lines():
    with pytest.raises(ShapeFileError, match="expected 'row col'"):
        load_custom_shape("0 0 0\n")
    with pytest.raises(ShapeFileError, match="must be integers"):
        load_custom_shape("0 a\n")
    with pytest.raises(ShapeFileError, match="duplicate"):
        load_custom_shape("0 0\n0 0\n")
    with pytest.raises(ShapeFileError, match="negative"):
        load_custom_shape("0 -1\n")
    with pytest.raises(ShapeFileError, match="no coordinates"):
        load_custom_shape("# nothing here\n\n")


@pytest.mark.parametrize(("text", "message"), [
    ("0 0\n\n# far\n99999999 2\n", "line 4: coordinate \\(99999999, 2\\) above 16777216"),
    (f"0 0\n-{10**400} 0\n", "line 2: negative coordinate"),
    # an earlier bad point wins over a later unparsable line
    ("0 0\n0 0\njunk\n", "line 2: duplicate coordinate \\(0, 0\\)"),
    ("0 0\njunk\n0 0\n", "line 2: expected 'row col'"),
    # int() refuses runs past 4,300 digits; the message echoes 40 of them
    (f"0 0\n{'9' * 5000} 1\n",
     f"line 2: coordinate \\({'9' * 40}\\.\\.\\. \\(5000 characters\\), 1\\) above 16777216$"),
    (f"0 0\n1 -{'9' * 5000}\n", "line 2: negative coordinate \\(1, -9{39}\\.\\.\\. \\(5001 "),
    (f"x {'1' * 5000}\n", "line 1: coordinates must be integers, got 'x 1{38}\\.\\.\\. "
                        "\\(5002 characters\\)'$"),
    # leading zeros count against that limit too; the row means (5, 0)
    (f"5 0\n{'0' * 5000}5 0\n", "line 2: duplicate coordinate \\(5, 0\\)$"),
    (f"0 0\n1 -{'0' * 5000}5\n", "line 2: negative coordinate \\(1, -5\\)$"),
], ids=["above-bound", "minus-401-digits", "duplicate-first", "unparsable-first",
        "5000-digits", "minus-5000-digits", "echo-capped", "5000-leading-zeros",
        "minus-5000-leading-zeros"])
def test_load_custom_shape_names_the_line_of_every_error(text, message):
    with pytest.raises(ShapeFileError, match=message):
        load_custom_shape(text)


def test_load_custom_shape_is_linear_in_the_point_count():
    # a list membership test made this quadratic: 8,000 points took 1.25 s
    text = "\n".join(f"{k // 400} {k % 400}" for k in range(100_000))
    start = time.perf_counter()
    geo = load_custom_shape(text)
    assert time.perf_counter() - start < 10
    assert geo.n == 100_000 and geo.coords[-1] == (249, 399)
    with pytest.raises(ShapeFileError, match="line 100001: duplicate coordinate \\(0, 0\\)"):
        load_custom_shape(text + "\n0 0\n")


# -- base grid ------------------------------------------------------------------


@pytest.mark.parametrize(
    ("h_in", "w_in", "stride", "pad", "h_out", "w_out"),
    [
        (8, 8, 1, 0, 8, 8),
        (8, 8, 2, 0, 4, 4),
        (8, 8, 2, 1, 5, 5),
        (28, 28, 2, 1, 15, 15),
        (1, 1, 1, 0, 1, 1),
    ],
)
def test_base_grid_extent(h_in, w_in, stride, pad, h_out, w_out):
    # pad is the zero padding ahead of the layer, which widens its input
    grid = base_grid(h_in + 2 * pad, w_in + 2 * pad, stride=stride)
    assert (grid.h_out, grid.w_out) == (h_out, w_out)


@given(
    h_in=st.integers(min_value=1, max_value=40),
    stride=st.integers(min_value=1, max_value=4),
    pad=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_base_grid_anchors_are_stride_multiples(h_in, stride, pad):
    # a one-point layer with zero offsets samples exactly at the anchors
    grid = base_grid(h_in + 2 * pad, h_in + 2 * pad, stride=stride)
    layer = LdconvLayer.create(1, 1, 1, stride=stride)
    x = Tensor4(pad2d(np.zeros((1, 1, h_in, h_in), dtype=np.float32), pad))
    sample = layer.forward(x)[1].grid
    assert sample.dims == (1, 1, grid.h_out, grid.w_out)
    anchors = sample.rows[0, 0, :, 0]
    assert np.all(anchors % stride == 0)
    assert np.all(np.diff(anchors) == stride)
    assert anchors[0] == 0 and np.all(sample.cols[0, 0, 0, :] == anchors)


def test_base_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        base_grid(0, 5)
    with pytest.raises(ValueError):
        base_grid(5, 5, stride=0)
