"""Kernel sampling geometry: initial coordinates, custom shapes, base grid.

A kernel of size n is described by n distinct integer (row, col) coordinates
with a top-left origin.  The default generator lays the points out as a
near-square block: with base = round(sqrt(n)) (half away from zero) it emits
full rows of `base` points in row-major order and, when n is not divisible by
base, one final partial row holding the remainder.  Any other arrangement can
be supplied through a shape file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ShapeFileError(ValueError):
    """A custom shape description is malformed or inconsistent; index is the
    position of the offending point when one point is at fault."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


# Largest coordinate accepted: float32 holds every integer up to 2**24
# exactly, so no two points of a float32 layer's kernel merge.
MAX_COORD = 2 ** 24


@dataclass(frozen=True)
class KernelGeometry:
    """Distinct non-negative integer (row, col) sampling coordinates."""

    coords: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.coords) < 1:
            raise ValueError("kernel geometry needs at least one coordinate")
        seen = set()
        cleaned = []
        for k, pair in enumerate(self.coords):
            if len(pair) != 2:
                raise ValueError(f"coordinate {pair!r} is not a (row, col) pair")
            r, c = pair
            # both bounds before float(), which overflows past 1e308
            if r < 0 or c < 0:
                raise ShapeFileError(f"negative coordinate ({r}, {c})", k)
            if r > MAX_COORD or c > MAX_COORD:
                raise ShapeFileError(f"coordinate ({r}, {c}) above {MAX_COORD}", k)
            if not (float(r).is_integer() and float(c).is_integer()):
                raise ValueError(f"fractional coordinate ({r}, {c}) not allowed")
            r, c = int(r), int(c)
            if (r, c) in seen:
                raise ShapeFileError(f"duplicate coordinate ({r}, {c})", k)
            seen.add((r, c))
            cleaned.append((r, c))
        object.__setattr__(self, "coords", tuple(cleaned))

    @property
    def n(self) -> int:
        return len(self.coords)

    def rows(self) -> np.ndarray:
        return np.array([r for r, _ in self.coords], dtype=np.int64)

    def cols(self) -> np.ndarray:
        return np.array([c for _, c in self.coords], dtype=np.int64)


def gen_initial_coords(n: int) -> KernelGeometry:
    """Default n-point kernel layout (near-square block plus remainder row)."""
    if n < 1:
        raise ValueError(f"kernel size must be >= 1, got {n}")
    base = math.floor(math.sqrt(n) + 0.5)  # round half away from zero
    full_rows = n // base
    remainder = n % base
    coords = [(r, c) for r in range(full_rows) for c in range(base)]
    coords.extend((full_rows, c) for c in range(remainder))
    return KernelGeometry(tuple(coords))


def load_custom_shape(text: str) -> KernelGeometry:
    """Parse a shape file: one "row col" pair per line, '#' starts a comment.

    KernelGeometry validates the points; every error names the first bad line.
    """
    coords: list[tuple[int, int]] = []
    linenos: list[int] = []
    unparsed = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            r, c = map(int, parts)
        except ValueError:
            what = "coordinates must be integers" if len(parts) == 2 else "expected 'row col'"
            unparsed = f"line {lineno}: {what}, got {raw!r}"
            break
        coords.append((r, c))
        linenos.append(lineno)
    try:  # the points before an unparsable line may hold an earlier error
        geometry = KernelGeometry(tuple(coords)) if coords else None
    except ShapeFileError as exc:
        raise ShapeFileError(f"line {linenos[exc.index]}: {exc}") from None
    if unparsed or not coords:
        raise ShapeFileError(unparsed or "shape file holds no coordinates")
    return geometry


@dataclass(frozen=True)
class BaseGrid:
    """Extent of the stride-spaced anchor grid (i*stride, j*stride) on the padded map."""

    h_out: int
    w_out: int


def base_grid(h_in: int, w_in: int, stride: int = 1, pad: int = 0) -> BaseGrid:
    """Output extent of the anchor grid for an input of h_in x w_in after padding.

    h_out = floor((h_in + 2*pad - 1) / stride) + 1; a position's sampled
    footprint may extend past the padded map, which the sampler's boundary
    clamp absorbs.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    if h_in < 1 or w_in < 1:
        raise ValueError(f"input extent must be positive, got {h_in}x{w_in}")
    h_out = (h_in + 2 * pad - 1) // stride + 1
    w_out = (w_in + 2 * pad - 1) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ValueError(f"degenerate grid: {h_out}x{w_out}")
    return BaseGrid(h_out=h_out, w_out=w_out)
