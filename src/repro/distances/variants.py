"""DTW variants: derivative DTW, weighted DTW, and DBA barycenters.

Extensions beyond the paper's core that a time series library is
expected to ship (cf. tslearn / dtaidistance), and that ONEX's design
discussion motivates directly:

- :func:`derivative_dtw` — DDTW (Keogh & Pazzani, SDM 2001): align
  estimated local slopes instead of raw values, making matching
  level-invariant (the seasonal view's ``remove_level`` sibling).
- :func:`weighted_dtw` — WDTW (Jeong, Jeong & Omitaomu, 2011): a
  sigmoid penalty on warping-path deviation from the diagonal, a softer
  alternative to the hard Sakoe–Chiba band.
- :func:`dtw_barycenter` — DBA (Petitjean, Ketterlin & Gançarski, 2011):
  an average *under DTW*.  ONEX summarises similarity groups by their
  arithmetic centroid (cheap, ED-faithful); DBA is the natural
  alternative representative, and the E10 ablation benchmark quantifies
  the trade-off.
"""

from __future__ import annotations

import numpy as np

from repro.distances.dtw import _row_scan, dtw_distance, dtw_path, effective_band
from repro.distances.metrics import as_sequence
from repro.exceptions import ValidationError

__all__ = ["derivative", "derivative_dtw", "dtw_barycenter", "weighted_dtw"]


def derivative(values) -> np.ndarray:
    """Keogh–Pazzani derivative estimate of a sequence.

    ``d_i = ((x_i - x_{i-1}) + (x_{i+1} - x_{i-1}) / 2) / 2`` for interior
    points, with the endpoints copying their neighbours' estimates.
    Requires at least 3 points.
    """
    x = as_sequence(values, name="values")
    if x.shape[0] < 3:
        raise ValidationError("derivative needs at least 3 points")
    interior = ((x[1:-1] - x[:-2]) + (x[2:] - x[:-2]) / 2.0) / 2.0
    return np.concatenate(([interior[0]], interior, [interior[-1]]))


def derivative_dtw(
    x,
    y,
    *,
    window: int | None = None,
    normalized: bool = False,
) -> float:
    """DTW on derivative estimates (DDTW) — shape-of-change alignment.

    Invariant to constant level offsets by construction; two series that
    rise and fall together match even at different absolute levels.
    """
    return dtw_distance(
        derivative(x), derivative(y), window=window, normalized=normalized
    )


def weighted_dtw(
    x, y, *, g: float = 0.05, w_max: float = 1.0, window: int | None = None
) -> float:
    """Weighted DTW: ground costs scaled by a sigmoid of |i - j|.

    ``w(d) = w_max / (1 + exp(-g * (d - m/2)))`` with ``m`` the longer
    length — small for near-diagonal cells, approaching *w_max* far from
    it.  ``g`` controls how sharply off-diagonal matching is penalised
    (``g=0`` gives a flat ``w_max/2`` weighting, recovering plain DTW up
    to a constant factor).  A finite *window* also bands the alignment
    to a Sakoe–Chiba radius, widened as :func:`effective_band` widens it.
    """
    a = as_sequence(x, name="x")
    b = as_sequence(y, name="y")
    if g < 0:
        raise ValidationError(f"g must be >= 0, got {g}")
    if w_max <= 0:
        raise ValidationError(f"w_max must be > 0, got {w_max}")
    n, m = a.shape[0], b.shape[0]
    half = max(n, m) / 2.0
    # Precompute weights per |i - j| (bounded by max(n, m) - 1).
    offsets = np.arange(max(n, m))
    weights = w_max / (1.0 + np.exp(-g * (offsets - half)))
    local = weights[np.abs(np.subtract.outer(np.arange(n), np.arange(m)))]
    local *= np.abs(a[:, None] - b[None, :])
    return _row_scan(local, effective_band(n, m, window))[-1][-1]


def dtw_barycenter(
    sequences,
    *,
    length: int | None = None,
    iterations: int = 10,
    tolerance: float = 1e-6,
) -> np.ndarray:
    """DBA: the sequence minimising the summed DTW to *sequences*.

    Starts from the medoid (the member with the least summed DTW), then
    repeats: align every member to the current average, assign each
    member point to the average coordinates its warping path touches,
    and replace every coordinate by the mean of its assigned points.
    Converges monotonically in the DBA objective; stops early when the
    average moves less than *tolerance*.

    *length* resamples the initial average to a fixed length (members may
    have heterogeneous lengths); by default the medoid's length is kept.
    """
    members = [as_sequence(s, name="sequence") for s in sequences]
    if not members:
        raise ValidationError("sequences must be non-empty")
    if iterations < 1:
        raise ValidationError("iterations must be >= 1")

    # Medoid initialisation.
    totals = [
        sum(dtw_distance(candidate, other) for other in members)
        for candidate in members
    ]
    average = members[int(np.argmin(totals))].copy()
    if length is not None:
        if length < 1:
            raise ValidationError("length must be >= 1")
        idx = np.linspace(0, average.shape[0] - 1, length)
        average = np.interp(idx, np.arange(average.shape[0]), average)

    for _ in range(iterations):
        sums = np.zeros_like(average)
        counts = np.zeros_like(average)
        for member in members:
            path = dtw_path(average, member).path
            for i, j in path:
                sums[i] += member[j]
                counts[i] += 1
        updated = np.where(counts > 0, sums / np.maximum(counts, 1), average)
        if float(np.abs(updated - average).max()) < tolerance:
            average = updated
            break
        average = updated
    return average
