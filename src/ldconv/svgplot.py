"""Standalone SVG scatter/line plots built by string assembly (no plotting deps)."""

from __future__ import annotations

import math

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
# grid lines (and labels) per axis of a shape scatter, beyond which it coarsens
MAX_GRID_LINES = 64


def _fmt(v: float) -> str:
    return f"{v:.3f}".rstrip("0").rstrip(".")


def _escape(text: str) -> str:
    """Text as XML character data.  xml.sax.saxutils.escape does the same, but
    importing it loads urllib.request: about 7 MB of RSS and 40 ms."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class SvgCanvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2, color="#888"):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="1"/>')

    def polyline(self, points, color):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')

    def circle(self, cx, cy, r, color):
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{color}"/>')

    def text(self, x, y, content, size=11, color="#222", anchor="start"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" fill="{color}" '
            f'font-family="monospace" text-anchor="{anchor}">{_escape(content)}</text>')

    def to_string(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def shape_scatter_svg(geometry, title: str = "kernel shape") -> str:
    """Scatter of kernel coordinates over a grid; rows grow downward.

    Up to MAX_GRID_LINES units per axis every unit gets a 40 px cell, a grid
    line and a label; a wider shape is drawn at a coarser step with smaller
    cells, so the drawing stays about as large as a 64-unit one.
    """
    rows = geometry.rows()
    cols = geometry.cols()
    span_r = int(rows.max()) + 1
    span_c = int(cols.max()) + 1
    step = -(-max(span_r, span_c) // MAX_GRID_LINES)      # 1 up to 64 units
    cell = 40 / step
    margin = 50
    width = margin * 2 + math.ceil(span_c * cell)
    height = margin * 2 + math.ceil(span_r * cell) + 20
    svg = SvgCanvas(width, height)
    svg.text(margin, 25, title, size=13)
    for r in range(0, span_r + 1, step):
        y = margin + r * cell
        svg.line(margin, y, margin + span_c * cell, y)
    for c in range(0, span_c + 1, step):
        x = margin + c * cell
        svg.line(x, margin, x, margin + span_r * cell)
    for (r, c) in geometry.coords:
        svg.circle(margin + (c + 0.5) * cell, margin + (r + 0.5) * cell, max(9 / step, 2),
                   PALETTE[0])
    for r in range(0, span_r, step):
        svg.text(margin - 8, margin + (r + 0.5) * cell + 4, str(r), anchor="end")
    for c in range(0, span_c, step):
        svg.text(margin + (c + 0.5) * cell, margin + span_r * cell + 16, str(c),
                 anchor="middle")
    return svg.to_string()


def line_chart_svg(series, title: str, x_label: str, y_label: str) -> str:
    """series: list of (label, xs, ys); axes are scaled to cover all points."""
    width, height = 560, 380
    left, right, top, bottom = 70, 20, 40, 50
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("no data points to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def sy(y):
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    svg = SvgCanvas(width, height)
    svg.text(left, 22, title, size=13)
    svg.line(left, height - bottom, width - right, height - bottom, color="#222")
    svg.line(left, top, left, height - bottom, color="#222")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        svg.line(sx(xv), height - bottom, sx(xv), height - bottom + 4, color="#222")
        svg.text(sx(xv), height - bottom + 18, _fmt(xv), anchor="middle")
        svg.line(left - 4, sy(yv), left, sy(yv), color="#222")
        svg.text(left - 8, sy(yv) + 4, _fmt(yv), anchor="end")
    svg.text((left + width - right) / 2, height - 14, x_label, anchor="middle")
    svg.text(16, top - 10, y_label)
    for k, (label, xs, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        svg.polyline([(sx(x), sy(y)) for x, y in zip(xs, ys)], color)
        svg.text(width - right - 6, top + 16 + 16 * k, label, color=color, anchor="end")
    return svg.to_string()
