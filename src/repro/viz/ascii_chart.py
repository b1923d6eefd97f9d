"""Terminal chart renderers.

The demo's web charts have headless stand-ins here so the example scripts
can *show* similarity results in any terminal: block-character sparklines
and two-series overlays marking warped matches.
"""

from __future__ import annotations

import numpy as np

from repro.distances.metrics import as_sequence
from repro.exceptions import ValidationError

__all__ = ["multi_line_chart", "sparkline"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values) -> str:
    """One-line block-character rendering of a series."""
    v = as_sequence(values, name="values")
    lo, hi = float(v.min()), float(v.max())
    if hi - lo <= 0:
        return _BLOCKS[3] * v.shape[0]
    scaled = (v - lo) / (hi - lo) * (len(_BLOCKS) - 1)
    return "".join(_BLOCKS[int(round(s))] for s in scaled)


def _scale_to_rows(values: np.ndarray, height: int, lo: float, hi: float) -> np.ndarray:
    if hi - lo <= 0:
        return np.full(values.shape[0], height // 2, dtype=int)
    scaled = (values - lo) / (hi - lo) * (height - 1)
    return np.clip(np.round(scaled).astype(int), 0, height - 1)


def _resample(values: np.ndarray, width: int) -> np.ndarray:
    if values.shape[0] == width:
        return values
    idx = np.linspace(0, values.shape[0] - 1, width)
    return np.interp(idx, np.arange(values.shape[0]), values)


def multi_line_chart(
    first,
    second,
    *,
    width: int = 60,
    height: int = 12,
    markers: tuple[str, str] = ("*", "o"),
    overlap: str = "@",
) -> str:
    """Overlay of two series on one grid (the "multiple lines" chart).

    Both series share the y-scale so level differences stay visible;
    *overlap* marks cells where they coincide — eyeballing how tightly the
    warped match follows the query.
    """
    if width < 2 or height < 2:
        raise ValidationError("width and height must be >= 2")
    a = _resample(as_sequence(first, name="first"), width)
    b = _resample(as_sequence(second, name="second"), width)
    lo = float(min(a.min(), b.min()))
    hi = float(max(a.max(), b.max()))
    rows_a = _scale_to_rows(a, height, lo, hi)
    rows_b = _scale_to_rows(b, height, lo, hi)
    grid = [[" "] * width for _ in range(height)]
    for col, row in enumerate(rows_a):
        grid[height - 1 - row][col] = markers[0]
    for col, row in enumerate(rows_b):
        cell = grid[height - 1 - row][col]
        grid[height - 1 - row][col] = overlap if cell == markers[0] else markers[1]
    return "\n".join("".join(line) for line in grid)
