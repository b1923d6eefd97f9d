"""The distance registry: metric names → kernels and bound families.

The query layers resolve their metric here (DESIGN.md §9).  Each
:class:`MetricSpec` of the closed :data:`REGISTRY` mapping bundles what
the one query walk needs of a metric:

- ``pair`` — the scalar distance on two windows, returning ``(raw,
  normalized)`` where *normalized* is the length-comparable value ONEX
  thresholds are expressed in (mean-per-element for the Lp family, cost
  per warping-path step for the DTW family);
- ``batch`` — an optional vectorised kernel evaluating one query against
  a stack of flattened candidate rows in one call (``weighted_dtw`` alone
  has none);
- ``lower_bound`` — an optional group-level bound family: given the
  normalized distance from the query to each group representative and
  the group radii, a provable lower bound on the distance to *any*
  member.  The walk prunes groups on it; without one it refines every
  group, the brute-force-verified full member scan.

Multivariate windows are stored channel-flattened (C-order ``(length,
channels)`` rows of width ``length * channels``); ``pair`` receives the
channel-shaped array, ``batch`` the flattened rows.  The triangle
inequality of the Lp metrics holds verbatim on flattened rows, which is
what makes the stored ``ed_radius`` / ``cheb_radius`` usable as bound
inputs for any channel count.  ``dtw`` and ``derivative_dtw`` run the
one DTW recurrence of :mod:`repro.distances.dtw` at every channel count:
``pair`` is :func:`~repro.distances.dtw.dtw_path` and ``batch`` the batch
kernel on rows reshaped to ``(rows, length, channels)``, with the ground
cost summed over channels.  DTW on a univariate base walks on the
representative table's own rank bounds and batch kernel instead.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from repro.distances.dtw import dtw_distance_batch, dtw_path
from repro.distances.variants import weighted_dtw
from repro.exceptions import ValidationError

__all__ = [
    "MetricSpec",
    "REGISTRY",
    "get_metric",
    "registered_metrics",
]

#: What a batch kernel returns: ``(raws, normalized)``, one per row.
Distances = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class MetricSpec:
    """One registered distance metric and its optional fast paths.

    Attributes
    ----------
    name:
        Registry key, also the closed-set ``metric`` label value of the
        ``onex_queries_total`` counter.
    pair:
        ``pair(x, y, window) -> (raw, normalized)`` — the scalar ground
        truth.  *x*/*y* are channel-shaped float64 arrays (1-D for
        univariate windows, ``(length, channels)`` otherwise).
    batch:
        ``batch(q_flat, rows, length, channels, window) -> (raws,
        normalized)`` over flattened candidate rows, for every channel
        count; ``None`` when the metric has no vectorised kernel (the walk
        then loops ``pair``).
    lower_bound:
        ``lower_bound(rep_normalized, ed_radii, cheb_radii) -> bounds``
        mapping per-group representative distances and radii to provable
        per-member lower bounds (normalized space), or ``None``.
    elastic:
        Whether the metric compares windows of different lengths (the
        DTW family).  Non-elastic metrics walk only the query's length.
    multivariate:
        Whether the metric is defined for multi-channel windows.
    """

    name: str
    pair: Callable
    batch: Callable | None = None
    lower_bound: Callable | None = None
    elastic: bool = True
    multivariate: bool = True


def _dtw_pair(x: ArrayLike, y: ArrayLike, window: int | None) -> tuple[float, float]:
    result = dtw_path(x, y, window=window)
    return result.distance, result.normalized_distance


def _dtw_normalized(q: np.ndarray, rows: np.ndarray, window: int | None) -> Distances:
    """Batch DTW on channel-shaped windows, with its cost per path step."""
    raws, plens = dtw_distance_batch(q, rows, window=window, with_path_length=True)
    return raws, raws / plens


def _dtw_batch(
    q_flat: np.ndarray, rows: np.ndarray, length: int, channels: int, window: int | None
) -> Distances:
    return _dtw_normalized(
        q_flat.reshape(-1, channels), rows.reshape(len(rows), length, channels), window
    )


def _derivative_rows(rows: np.ndarray) -> np.ndarray:
    """Keogh–Pazzani derivative of every row of a stack, per channel."""
    if rows.shape[1] < 3:
        raise ValidationError("derivative needs at least 3 points")
    x = rows
    interior = ((x[:, 1:-1] - x[:, :-2]) + (x[:, 2:] - x[:, :-2]) / 2.0) / 2.0
    return np.concatenate(
        [interior[:, :1], interior, interior[:, -1:]], axis=1
    )


def _ddtw_pair(x: ArrayLike, y: ArrayLike, window: int | None) -> tuple[float, float]:
    dx, dy = (_derivative_rows(np.asarray(v, dtype=np.float64)[None])[0] for v in (x, y))
    return _dtw_pair(dx, dy, window)


def _ddtw_batch(
    q_flat: np.ndarray, rows: np.ndarray, length: int, channels: int, window: int | None
) -> Distances:
    return _dtw_normalized(
        _derivative_rows(q_flat.reshape(1, -1, channels))[0],
        _derivative_rows(rows.reshape(len(rows), length, channels)),
        window,
    )


def _wdtw_pair(x: ArrayLike, y: ArrayLike, window: int | None) -> tuple[float, float]:
    raw = weighted_dtw(x, y, window=window)
    # No warping path is tracked; the minimum possible path length is the
    # consistent normaliser (exact when the optimal path is the diagonal).
    return raw, raw / max(len(x), len(y))


def _lp_pair(
    norm_fn: Callable[[np.ndarray], float], raw_of: Callable[[float, int], float]
) -> Callable:
    def pair(x: ArrayLike, y: ArrayLike, window: int | None) -> tuple[float, float]:
        a = np.asarray(x, dtype=np.float64).ravel()
        b = np.asarray(y, dtype=np.float64).ravel()
        if a.shape[0] != b.shape[0]:
            raise ValidationError(
                f"equal lengths required, got {a.shape[0]} and {b.shape[0]}"
            )
        norm = norm_fn(a - b)
        return raw_of(norm, a.shape[0]), norm

    return pair


def _euclidean_batch(
    q_flat: np.ndarray, rows: np.ndarray, length: int, channels: int, window: int | None
) -> Distances:
    norms = np.sqrt(((rows - q_flat) ** 2).mean(axis=1))
    return norms * math.sqrt(rows.shape[1]), norms


def _cityblock_batch(
    q_flat: np.ndarray, rows: np.ndarray, length: int, channels: int, window: int | None
) -> Distances:
    norms = np.abs(rows - q_flat).mean(axis=1)
    return norms * rows.shape[1], norms


def _chebyshev_batch(
    q_flat: np.ndarray, rows: np.ndarray, length: int, channels: int, window: int | None
) -> Distances:
    norms = np.abs(rows - q_flat).max(axis=1)
    return norms, norms


def _euclidean_bound(
    rep_norms: np.ndarray, ed_radii: np.ndarray, cheb_radii: np.ndarray
) -> np.ndarray:
    # rms is (1/sqrt(width))·L2, a true metric; rms(c, m)^2 = mean(d^2)
    # <= max|d| · mean|d| <= cheb_radius · ed_radius, so the triangle
    # inequality gives rms(q, m) >= rms(q, c) - sqrt(ed · cheb).
    return np.maximum(rep_norms - np.sqrt(ed_radii * cheb_radii), 0.0)


def _cityblock_bound(
    rep_norms: np.ndarray, ed_radii: np.ndarray, cheb_radii: np.ndarray
) -> np.ndarray:
    # ed_radius IS the max mean-abs distance from representative to any
    # member, and mean-abs is a metric: d(q, m) >= d(q, c) - ed_radius.
    return np.maximum(rep_norms - ed_radii, 0.0)


def _chebyshev_bound(
    rep_norms: np.ndarray, ed_radii: np.ndarray, cheb_radii: np.ndarray
) -> np.ndarray:
    return np.maximum(rep_norms - cheb_radii, 0.0)


#: Every metric the query layers serve, by name — a closed set built
#: once at import.
REGISTRY: Mapping[str, MetricSpec] = MappingProxyType({
    spec.name: spec
    for spec in (
        MetricSpec(
            name="dtw",
            pair=_dtw_pair,
            batch=_dtw_batch,
            lower_bound=None,  # the univariate cascade has its own LB family
            elastic=True,
            multivariate=True,
        ),
        MetricSpec(
            name="euclidean",
            pair=_lp_pair(
                lambda d: float(np.sqrt((d**2).mean())),
                lambda norm, width: norm * math.sqrt(width),
            ),
            batch=_euclidean_batch,
            lower_bound=_euclidean_bound,
            elastic=False,
            multivariate=True,
        ),
        MetricSpec(
            name="cityblock",
            pair=_lp_pair(
                lambda d: float(np.abs(d).mean()),
                lambda norm, width: norm * width,
            ),
            batch=_cityblock_batch,
            lower_bound=_cityblock_bound,
            elastic=False,
            multivariate=True,
        ),
        MetricSpec(
            name="chebyshev",
            pair=_lp_pair(
                lambda d: float(np.abs(d).max()), lambda norm, width: norm
            ),
            batch=_chebyshev_batch,
            lower_bound=_chebyshev_bound,
            elastic=False,
            multivariate=True,
        ),
        MetricSpec(
            name="derivative_dtw",
            pair=_ddtw_pair,
            batch=_ddtw_batch,
            lower_bound=None,
            elastic=True,
            multivariate=True,
        ),
        MetricSpec(
            name="weighted_dtw",
            pair=_wdtw_pair,
            batch=None,
            lower_bound=None,
            elastic=True,
            multivariate=False,
        ),
    )
})


def get_metric(name: str) -> MetricSpec:
    """Resolve *name* against :data:`REGISTRY` (ValidationError if unknown)."""
    if not isinstance(name, str):
        raise ValidationError(f"metric must be a string, got {type(name).__name__}")
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown metric {name!r} (registered: {', '.join(registered_metrics())})"
        ) from None


def registered_metrics() -> tuple[str, ...]:
    """Registered metric names, sorted — the closed metric label set."""
    return tuple(sorted(REGISTRY))
