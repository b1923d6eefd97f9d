"""Payload builders for the ONEX visual panes (§3.4, Figs. 2–4).

Each function returns a plain dict of JSON-serialisable values — exactly
what the demo's d3 front end consumes from the server.  Keeping payloads
as data (rather than rendered images) lets the same builders feed the
HTTP API, the ASCII renderers, and the SVG writers, and makes the panes'
contracts testable.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import ArrayLike

from repro.core.query import Match
from repro.core.seasonal import SeasonalPattern
from repro.data.timeseries import TimeSeries
from repro.distances.metrics import as_sequence
from repro.exceptions import ValidationError

__all__ = [
    "connected_scatter_payload",
    "overview_payload",
    "query_preview_payload",
    "radial_chart_payload",
    "seasonal_view_payload",
    "similarity_view_payload",
]


def overview_payload(groups: list[dict]) -> dict:
    """Overview Pane: representative thumbnails shaded by cardinality.

    *groups* is the output of :meth:`repro.core.engine.OnexEngine.overview`.
    Adds the colour *intensity* channel (cardinality scaled to [0, 1])
    the pane uses.
    """
    if not groups:
        return {"view": "overview", "groups": []}
    top = max(entry["cardinality"] for entry in groups)
    return {
        "view": "overview",
        "groups": [
            {
                **entry,
                "intensity": entry["cardinality"] / top,
            }
            for entry in groups
        ],
    }


def query_preview_payload(series: TimeSeries, start: int, length: int) -> dict:
    """Query Preview Pane: full series with the brushed window highlighted.

    Brushing the preview (Fig. 2 left) re-queries with the selected
    subsequence; the payload carries both the context line and the brush.
    """
    series.subsequence(start, length)  # validates the brush window
    return {
        "view": "query-preview",
        "series": series.name,
        "values": series.values.tolist(),
        "brush": {"start": start, "length": length},
        "selection": series.values[start : start + length].tolist(),
        "metadata": dict(series.metadata),
    }


def _view_values(values: ArrayLike, *, name: str) -> np.ndarray:
    """Like :func:`as_sequence` but also admits 2-D multichannel values."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        return as_sequence(arr, name=name)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(
            f"{name} must be a non-empty 1-D or (length, channels) array, "
            f"got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    return arr


def _path_cells(match: Match, n: int, m: int) -> np.ndarray:
    """``match.path`` as a ``(cells, 2)`` index array that fits an
    ``n``-point query and an ``m``-point match."""
    cells = np.array(match.path, dtype=np.intp).reshape(-1, 2)
    if ((cells < 0) | (cells >= (n, m))).any():
        raise ValidationError("warping path does not fit the given values")
    return cells


def similarity_view_payload(
    query: ArrayLike, match_values: ArrayLike, match: Match
) -> dict:
    """Results Pane "multiple lines" chart with warped-point connectors.

    The dotted connectors of Fig. 2 are the warping path: index pairs
    ``(i, j)`` saying query point ``i`` is matched to candidate point
    ``j`` (multiple matchings included, unlike pointwise distance views).
    Multivariate values pass through as ``(length, channels)`` row lists;
    the path indexes time steps, so the connector check is on axis 0.
    """
    q = _view_values(query, name="query")
    m = _view_values(match_values, name="match_values")
    cells = _path_cells(match, q.shape[0], m.shape[0])
    return {
        "view": "similarity",
        "query": q.tolist(),
        "match": m.tolist(),
        "match_series": match.series_name,
        "match_start": match.start,
        "distance": match.distance,
        "connectors": cells.tolist(),
    }


def radial_chart_payload(values: ArrayLike, *, label: str = "") -> dict:
    """Radial Chart (Fig. 3a): the series wrapped around a circle.

    Point ``k`` of ``n`` sits at angle ``2*pi*k/(n-1)`` with radius equal
    to the min–max scaled value (kept off zero so the shape stays
    readable, matching the demo's compact radial display).
    """
    v = as_sequence(values, name="values")
    lo, hi = float(v.min()), float(v.max())
    spread = hi - lo
    if spread <= 0:
        radii = np.full(v.shape[0], 0.5)
    else:
        radii = 0.2 + 0.8 * (v - lo) / spread
    n = v.shape[0]
    angles = [0.0] if n == 1 else [2.0 * math.pi * k / (n - 1) for k in range(n)]
    return {
        "view": "radial",
        "label": label,
        "points": [
            {"angle": a, "radius": float(r), "value": float(x)}
            for a, r, x in zip(angles, radii, v)
        ],
    }


def connected_scatter_payload(
    query: ArrayLike, match_values: ArrayLike, match: Match
) -> dict:
    """Connected Scatter Plot (Fig. 3b): matched values against each other.

    Each warping-path cell contributes the point
    ``(query[i], match[j])``; consecutive points are connected to show
    ordering.  Points on the 45-degree diagonal have identical values in
    both series — the demo's closeness diagnostic, summarised here as the
    mean absolute deviation from the diagonal.  A match without a warping
    path (any non-DTW metric, the multivariate scan) has no such plot.
    """
    q = as_sequence(query, name="query")
    m = as_sequence(match_values, name="match_values")
    if not match.path:
        raise ValidationError(
            "match carries no warping path (only univariate DTW matches "
            "have one); the connected scatter plot needs it"
        )
    cells = _path_cells(match, q.shape[0], m.shape[0])
    points = np.column_stack([q[cells[:, 0]], m[cells[:, 1]]])
    return {
        "view": "connected-scatter",
        "points": points.tolist(),
        "diagonal_deviation": float(np.abs(points[:, 0] - points[:, 1]).mean()),
    }


def seasonal_view_payload(series: TimeSeries, patterns: list[SeasonalPattern]) -> dict:
    """Seasonal View (Fig. 4): recurring segments with alternating colours.

    Each pattern gets its occurrence segments tagged with alternating
    colour slots (the demo's blue/green striping of consecutive
    instances).
    """
    return {
        "view": "seasonal",
        "series": series.name,
        "values": series.values.tolist(),
        "patterns": [
            {
                "length": p.length,
                "max_pairwise_dtw": p.max_pairwise_dtw,
                "centroid": p.centroid.tolist(),
                "segments": [
                    {
                        "start": start,
                        "stop": stop,
                        "color_slot": k % 2,
                    }
                    for k, (start, stop) in enumerate(p.segments())
                ],
            }
            for p in patterns
        ],
    }
