"""DTW variants: weighted DTW and DBA barycenters.

Extensions beyond the paper's core that a time series library is
expected to ship (cf. tslearn / dtaidistance), and that ONEX's design
discussion motivates directly:

- :func:`weighted_dtw` — WDTW (Jeong, Jeong & Omitaomu, 2011): a
  sigmoid penalty on warping-path deviation from the diagonal, a softer
  alternative to the hard Sakoe–Chiba band; the registry serves it as
  the ``weighted_dtw`` metric.
- :func:`dtw_barycenter` — DBA (Petitjean, Ketterlin & Gançarski, 2011):
  an average *under DTW*.  ONEX summarises similarity groups by their
  arithmetic centroid (cheap, ED-faithful); DBA is the natural
  alternative representative, and the E10 ablation benchmark quantifies
  the trade-off.

Derivative DTW (DDTW, Keogh & Pazzani, SDM 2001) lives in the registry
alone, as the ``derivative_dtw`` metric's derivative rows and the one
DTW kernel.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np
from numpy.typing import ArrayLike

from repro.distances.dtw import _row_scan, dtw_distance, dtw_path, effective_band
from repro.distances.metrics import as_sequence
from repro.exceptions import ValidationError

__all__ = ["dtw_barycenter", "weighted_dtw"]


#: WDTW's sigmoid steepness ``g`` and weight ceiling ``w_max``.
_G = 0.05
_W_MAX = 1.0

#: DBA stops once no coordinate of the average moves further than this.
_TOLERANCE = 1e-6


def weighted_dtw(x: ArrayLike, y: ArrayLike, *, window: int | None = None) -> float:
    """Weighted DTW: ground costs scaled by a sigmoid of |i - j|.

    ``w(d) = w_max / (1 + exp(-g * (d - m/2)))`` with ``m`` the longer
    length — small for near-diagonal cells, approaching ``w_max``
    (``_W_MAX``) far from it.  ``g`` (``_G``) controls how sharply
    off-diagonal matching is penalised (``g=0`` gives a flat ``w_max/2``
    weighting, recovering plain DTW up to a constant factor).  A finite
    *window* also bands the alignment to a Sakoe–Chiba radius, widened as
    :func:`effective_band` widens it.
    """
    a = as_sequence(x, name="x")
    b = as_sequence(y, name="y")
    n, m = a.shape[0], b.shape[0]
    half = max(n, m) / 2.0
    # Precompute weights per |i - j| (bounded by max(n, m) - 1).
    offsets = np.arange(max(n, m))
    weights = _W_MAX / (1.0 + np.exp(-_G * (offsets - half)))
    local = weights[np.abs(np.subtract.outer(np.arange(n), np.arange(m)))]
    local *= np.abs(a[:, None] - b[None, :])
    return _row_scan(local, effective_band(n, m, window))[-1][-1]


def dtw_barycenter(
    sequences: Iterable[ArrayLike], *, length: int | None = None, iterations: int = 10
) -> np.ndarray:
    """DBA: the sequence minimising the summed DTW to *sequences*.

    Starts from the medoid (the member with the least summed DTW), then
    repeats: align every member to the current average, assign each
    member point to the average coordinates its warping path touches,
    and replace every coordinate by the mean of its assigned points.
    Converges monotonically in the DBA objective; stops early when the
    average moves less than ``_TOLERANCE``.

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
        if float(np.abs(updated - average).max()) < _TOLERANCE:
            average = updated
            break
        average = updated
    return average
