"""Pluggable distance registry: metric names → kernels and bound families.

The query layers resolve their metric here (DESIGN.md §9).  A registered
:class:`MetricSpec` bundles what the one query walk needs of a metric:

- ``pair`` — the scalar distance on two windows, returning ``(raw,
  normalized)`` where *normalized* is the length-comparable value ONEX
  thresholds are expressed in (mean-per-element for the Lp family, cost
  per warping-path step for the DTW family);
- ``batch`` — an optional vectorised kernel evaluating one query against
  a stack of flattened candidate rows in a single numpy dispatch;
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
inputs for any channel count.  DTW on a univariate base walks on the
representative table's own rank bounds and batch kernel instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from repro.distances.dtw import dtw_distance_batch, effective_band
from repro.distances.variants import derivative, weighted_dtw
from repro.exceptions import ValidationError

__all__ = [
    "DistanceRegistry",
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
        normalized)`` over flattened candidate rows, or ``None`` when the
        metric has no vectorised kernel (the walk then loops ``pair``).
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

    def pair_shaped(
        self,
        q_flat: np.ndarray,
        row_flat: np.ndarray,
        length: int,
        channels: int,
        window: int | None,
    ) -> tuple[float, float]:
        """Run :attr:`pair` on flattened rows, restoring channel shape."""
        if channels > 1:
            q = q_flat.reshape(-1, channels)
            r = row_flat.reshape(length, channels)
        else:
            q, r = q_flat, row_flat
        return self.pair(q, r, window)


class DistanceRegistry:
    """Name → :class:`MetricSpec` mapping with a closed, known key set."""

    def __init__(self) -> None:
        self._specs: dict[str, MetricSpec] = {}

    def register(self, spec: MetricSpec) -> MetricSpec:
        if not isinstance(spec, MetricSpec):
            raise ValidationError(
                f"expected MetricSpec, got {type(spec).__name__}"
            )
        if not spec.name or not isinstance(spec.name, str):
            raise ValidationError("metric name must be a non-empty string")
        if spec.name in self._specs:
            raise ValidationError(f"metric {spec.name!r} already registered")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> MetricSpec:
        """Resolve *name*, raising a clear error for unknown metrics."""
        if not isinstance(name, str):
            raise ValidationError(
                f"metric must be a string, got {type(name).__name__}"
            )
        try:
            return self._specs[name]
        except KeyError:
            raise ValidationError(
                f"unknown metric {name!r} (registered: "
                f"{', '.join(self.names())})"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Registered metric names, sorted."""
        return tuple(sorted(self._specs))

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)


def _dtw_pair_dependent(
    x: ArrayLike, y: ArrayLike, window: int | None
) -> tuple[float, float]:
    """Dependent DTW on channel-shaped windows, with tracked path length.

    Ground cost between time steps is the summed per-channel absolute
    difference (for 1-D inputs this is exactly the library's default
    ``ground="l1"`` DTW).  The predecessor tie-break — diagonal, then
    vertical, then horizontal — matches :func:`repro.distances.dtw.
    dtw_path`, so the normalized value agrees with the cascade's on
    univariate input.
    """
    a = np.atleast_2d(np.asarray(x, dtype=np.float64).T).T
    b = np.atleast_2d(np.asarray(y, dtype=np.float64).T).T
    n, m = a.shape[0], b.shape[0]
    band = effective_band(n, m, window)
    inf = math.inf
    cost_prev = [inf] * m
    plen_prev = [0] * m
    ground = np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)
    for i in range(n):
        j_lo, j_hi = 0, m - 1
        if band is not None:
            j_lo, j_hi = max(0, i - band), min(m - 1, i + band)
        cost_cur = [inf] * m
        plen_cur = [0] * m
        for j in range(j_lo, j_hi + 1):
            d = ground[i, j]
            if i == 0 and j == 0:
                cost_cur[0] = d
                plen_cur[0] = 1
                continue
            up = cost_prev[j]
            diag = cost_prev[j - 1] if j > 0 else inf
            left = cost_cur[j - 1] if j > 0 else inf
            if diag <= up and diag <= left:
                best, plen = diag, plen_prev[j - 1]
            elif up <= left:
                best, plen = up, plen_prev[j]
            else:
                best, plen = left, plen_cur[j - 1]
            cost_cur[j] = d + best
            plen_cur[j] = plen + 1
        cost_prev, plen_prev = cost_cur, plen_cur
    raw = cost_prev[m - 1]
    if not math.isfinite(raw):
        raise ValidationError(
            "no feasible warping path (window too narrow for these lengths)"
        )
    return float(raw), float(raw) / plen_prev[m - 1]


def _dtw_batch(
    q_flat: np.ndarray, rows: np.ndarray, length: int, channels: int, window: int | None
) -> Distances | None:
    if channels > 1:
        return None  # dependent DTW has no batched kernel; scan loops pair
    raws, plens = dtw_distance_batch(
        q_flat, rows, window=window, with_path_length=True
    )
    return raws, raws / plens


def _derivative_rows(rows: np.ndarray) -> np.ndarray:
    """Keogh–Pazzani derivative of every row of a 2-D stack."""
    if rows.shape[1] < 3:
        raise ValidationError("derivative needs at least 3 points")
    x = rows
    interior = ((x[:, 1:-1] - x[:, :-2]) + (x[:, 2:] - x[:, :-2]) / 2.0) / 2.0
    return np.concatenate(
        [interior[:, :1], interior, interior[:, -1:]], axis=1
    )


def _ddtw_pair(x: ArrayLike, y: ArrayLike, window: int | None) -> tuple[float, float]:
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape[0] < 3 or b.shape[0] < 3:
        raise ValidationError("derivative needs at least 3 points")
    if a.ndim == 2:
        da = np.column_stack([derivative(a[:, c]) for c in range(a.shape[1])])
        db = np.column_stack([derivative(b[:, c]) for c in range(b.shape[1])])
    else:
        da, db = derivative(a), derivative(b)
    return _dtw_pair_dependent(da, db, window)


def _ddtw_batch(
    q_flat: np.ndarray, rows: np.ndarray, length: int, channels: int, window: int | None
) -> Distances | None:
    if channels > 1:
        return None
    raws, plens = dtw_distance_batch(
        _derivative_rows(q_flat[None, :])[0],
        _derivative_rows(rows),
        window=window,
        with_path_length=True,
    )
    return raws, raws / plens


def _wdtw_pair(x: ArrayLike, y: ArrayLike, window: int | None) -> tuple[float, float]:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ValidationError(
            "metric 'weighted_dtw' supports univariate series only"
        )
    raw = weighted_dtw(x, y)
    # No warping path is tracked; the minimum possible path length is the
    # consistent normaliser (exact when the optimal path is the diagonal).
    return raw, raw / max(a.shape[0], np.asarray(y).shape[0])


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


#: The process-wide default registry consulted by the query layers.
REGISTRY = DistanceRegistry()

REGISTRY.register(
    MetricSpec(
        name="dtw",
        pair=_dtw_pair_dependent,
        batch=_dtw_batch,
        lower_bound=None,  # the univariate cascade has its own LB family
        elastic=True,
        multivariate=True,
    )
)
REGISTRY.register(
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
    )
)
REGISTRY.register(
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
    )
)
REGISTRY.register(
    MetricSpec(
        name="chebyshev",
        pair=_lp_pair(
            lambda d: float(np.abs(d).max()), lambda norm, width: norm
        ),
        batch=_chebyshev_batch,
        lower_bound=_chebyshev_bound,
        elastic=False,
        multivariate=True,
    )
)
REGISTRY.register(
    MetricSpec(
        name="derivative_dtw",
        pair=_ddtw_pair,
        batch=_ddtw_batch,
        lower_bound=None,
        elastic=True,
        multivariate=True,
    )
)
REGISTRY.register(
    MetricSpec(
        name="weighted_dtw",
        pair=_wdtw_pair,
        batch=None,
        lower_bound=None,
        elastic=True,
        multivariate=False,
    )
)


def get_metric(name: str) -> MetricSpec:
    """Resolve *name* against the default registry (ValidationError if unknown)."""
    return REGISTRY.get(name)


def registered_metrics() -> tuple[str, ...]:
    """Names in the default registry — the closed metric label set."""
    return REGISTRY.names()
