"""Dependency-free SVG renderers for the paper's chart styles.

Generates standalone ``.svg`` files for the similarity view (multiple
lines with dotted warped-point connectors, Fig. 2), the radial chart
(Fig. 3a), the connected scatter plot (Fig. 3b), and the seasonal view
(Fig. 4).  Only string formatting — no plotting dependencies — so every
figure regenerates headlessly in this offline environment.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from repro.distances.metrics import as_sequence
from repro.exceptions import ValidationError

__all__ = [
    "svg_connected_scatter",
    "svg_radial_chart",
    "svg_seasonal_view",
    "svg_similarity_view",
]

_W, _H, _PAD = 640, 360, 40


def _document(body: str, width: int = _W, height: int = _H) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def _xy(values: np.ndarray, lo: float, hi: float, width: int = _W, height: int = _H):
    n = values.shape[0]
    xs = np.linspace(_PAD, width - _PAD, n)
    if hi - lo <= 0:
        ys = np.full(n, height / 2.0)
    else:
        ys = height - _PAD - (values - lo) / (hi - lo) * (height - 2 * _PAD)
    return xs, ys


def _polyline(xs, ys, color: str, *, dashed: bool = False, width: float = 2.0) -> str:
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    return (
        f'<polyline points="{points}" fill="none" stroke="{color}" '
        f'stroke-width="{width}"{dash}/>'
    )


def _write(path, content: str) -> Path:
    path = Path(path)
    path.write_text(content, encoding="utf-8")
    return path


def svg_similarity_view(query, match_values, connectors, path, *, title: str = "") -> Path:
    """Fig. 2 Results Pane: both series plus dotted warped connectors.

    *connectors* are ``(i, j)`` warping-path pairs (query index, match
    index), exactly as carried by ``similarity_view_payload``.
    """
    q = as_sequence(query, name="query")
    m = as_sequence(match_values, name="match_values")
    lo = float(min(q.min(), m.min()))
    hi = float(max(q.max(), m.max()))
    qx, qy = _xy(q, lo, hi)
    mx, my = _xy(m, lo, hi)
    lines = [_polyline(qx, qy, "#1f77b4"), _polyline(mx, my, "#ff7f0e")]
    for i, j in connectors:
        if not (0 <= i < q.shape[0] and 0 <= j < m.shape[0]):
            raise ValidationError("connector indices outside the series")
        lines.append(
            f'<line x1="{qx[i]:.2f}" y1="{qy[i]:.2f}" x2="{mx[j]:.2f}" '
            f'y2="{my[j]:.2f}" stroke="#999" stroke-width="1" '
            f'stroke-dasharray="3 3"/>'
        )
    if title:
        lines.append(f'<text x="{_PAD}" y="24" font-size="16">{title}</text>')
    return _write(path, _document("\n".join(lines)))


def svg_radial_chart(values, path, *, color: str = "#1f77b4", title: str = "") -> Path:
    """Fig. 3a: the series wrapped around a circle (compact comparison)."""
    v = as_sequence(values, name="values")
    lo, hi = float(v.min()), float(v.max())
    size = min(_W, _H)
    cx, cy = _W / 2.0, _H / 2.0
    r_max = size / 2.0 - _PAD
    n = v.shape[0]
    pts = []
    for k, x in enumerate(v):
        angle = 0.0 if n == 1 else 2.0 * math.pi * k / (n - 1)
        if hi - lo <= 0:
            radius = r_max / 2.0
        else:
            radius = r_max * (0.2 + 0.8 * (x - lo) / (hi - lo))
        pts.append((cx + radius * math.cos(angle), cy - radius * math.sin(angle)))
    body = [
        f'<circle cx="{cx}" cy="{cy}" r="{r_max}" fill="none" stroke="#ddd"/>',
        _polyline([p[0] for p in pts], [p[1] for p in pts], color),
    ]
    if title:
        body.append(f'<text x="{_PAD}" y="24" font-size="16">{title}</text>')
    return _write(path, _document("\n".join(body)))


def svg_connected_scatter(points, path, *, color: str = "#2ca02c", title: str = "") -> Path:
    """Fig. 3b: matched values of the pair against each other.

    *points* are ``(query_value, match_value)`` pairs in path order; the
    grey diagonal is the equal-values reference line.
    """
    if not points:
        raise ValidationError("points must be non-empty")
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("points must be (n, 2)")
    lo = float(arr.min())
    hi = float(arr.max())
    span = hi - lo if hi > lo else 1.0
    size = min(_W, _H)

    def to_px(v):
        return _PAD + (v - lo) / span * (size - 2 * _PAD)

    xs = [to_px(x) for x, _ in arr]
    ys = [size - to_px(y) for _, y in arr]
    body = [
        f'<line x1="{_PAD}" y1="{size - _PAD}" x2="{size - _PAD}" y2="{_PAD}" '
        f'stroke="#ccc" stroke-width="1"/>',
        _polyline(xs, ys, color, width=1.5),
    ]
    body.extend(
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>'
        for x, y in zip(xs, ys)
    )
    if title:
        body.append(f'<text x="{_PAD}" y="24" font-size="16">{title}</text>')
    return _write(path, _document("\n".join(body), width=size, height=size))


def svg_seasonal_view(values, segments, path, *, title: str = "") -> Path:
    """Fig. 4: the series with recurring segments shaded alternately.

    *segments* are ``(start, stop)`` pairs; consecutive occurrences get
    the demo's alternating blue/green shading.
    """
    v = as_sequence(values, name="values")
    xs, ys = _xy(v, float(v.min()), float(v.max()))
    shades = ("#aec7e8", "#98df8a")
    body = []
    for k, (start, stop) in enumerate(segments):
        if not (0 <= start < stop <= v.shape[0]):
            raise ValidationError(f"segment ({start}, {stop}) outside the series")
        x0 = xs[start]
        x1 = xs[stop - 1]
        body.append(
            f'<rect x="{x0:.2f}" y="{_PAD}" width="{max(x1 - x0, 1.0):.2f}" '
            f'height="{_H - 2 * _PAD}" fill="{shades[k % 2]}" opacity="0.5"/>'
        )
    body.append(_polyline(xs, ys, "#1f77b4"))
    if title:
        body.append(f'<text x="{_PAD}" y="24" font-size="16">{title}</text>')
    return _write(path, _document("\n".join(body)))
