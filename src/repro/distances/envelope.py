"""Keogh bounding envelopes.

The envelope of a sequence ``q`` with Sakoe–Chiba radius ``r`` is the pair
of sequences ``upper[i] = max(q[i-r : i+r+1])`` and ``lower[i] = min(...)``.
LB_Keogh (``repro.distances.lower_bounds``) measures how far a candidate
escapes this tube, which lower-bounds banded DTW — the "indexing of time
series using bounding envelopes" optimisation named in §3.3 of the paper.

The sliding min/max uses the standard monotonic-deque algorithm
(Lemire 2009), so building an envelope is O(n) regardless of the radius.

:class:`QueryEnvelopeCache` memoises the envelopes of one fixed query by
radius: the ONEX query processor needs one envelope per (bucket length,
window) pair and reuses it across every group of that length, so each
distinct radius is computed exactly once per query.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from numpy.typing import ArrayLike

from repro.distances.metrics import as_sequence
from repro.exceptions import ValidationError

__all__ = [
    "QueryEnvelopeCache",
    "keogh_envelope",
    "keogh_envelope_batch",
]


def _sliding_extreme(arr: np.ndarray, radius: int, *, take_max: bool) -> np.ndarray:
    """Windowed max (or min) over ``[i - radius, i + radius]`` for every i."""
    n = arr.shape[0]
    out = np.empty(n, dtype=np.float64)
    window: deque[int] = deque()  # indices, values monotone from the front

    def dominates(a: float, b: float) -> bool:
        return a >= b if take_max else a <= b

    # The window for position i covers indices [i - radius, i + radius].
    for k in range(n + radius):
        if k < n:
            while window and dominates(arr[k], arr[window[-1]]):
                window.pop()
            window.append(k)
        i = k - radius
        if i >= 0:
            while window[0] < i - radius:
                window.popleft()
            out[i] = arr[window[0]]
    return out


def keogh_envelope(values: ArrayLike, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(lower, upper)`` Keogh envelope arrays for *values*.

    ``radius`` is the Sakoe–Chiba band radius the envelope must cover; with
    ``radius=0`` both envelopes equal the input.  Guaranteed pointwise:
    ``lower <= values <= upper``.
    """
    arr = as_sequence(values, name="values")
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    return _sliding_extreme(arr, radius, take_max=False), _sliding_extreme(
        arr, radius, take_max=True
    )


def keogh_envelope_batch(rows: ArrayLike, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Keogh envelopes of every row of a 2-D stack at once.

    Returns ``(lower, upper)`` with the same shape as *rows*; row ``g`` is
    exactly ``keogh_envelope(rows[g], radius)`` (cross-checked by the
    property tests).  Used by
    :meth:`repro.core.base.RepresentativeTable.cheap_bounds` for the
    centroid envelopes of a banded query, without a Python loop over
    groups: round ``k`` of ``radius`` folds the stack
    shifted ``k`` columns left and right into the running extremes, in
    place over slices — min/max are exact, so the order of folding does
    not show in the result.
    """
    mat = np.asarray(rows, dtype=np.float64)
    if mat.ndim != 2:
        raise ValidationError(f"rows must be 2-D, got shape {mat.shape}")
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    lower, upper = mat.copy(), mat.copy()
    # A shift of the full width or more reaches no column.
    for k in range(1, min(radius, mat.shape[1] - 1) + 1):
        for fold, out in ((np.minimum, lower), (np.maximum, upper)):
            fold(out[:, k:], mat[:, :-k], out=out[:, k:])
            fold(out[:, :-k], mat[:, k:], out=out[:, :-k])
    return lower, upper


class QueryEnvelopeCache:
    """Keogh envelopes of one fixed query, memoised by radius.

    Answering a query against an ONEX base needs the query's envelope at
    one radius per (candidate length, window) combination; this cache
    computes each distinct radius once and hands back the same arrays on
    every subsequent request.  The arrays are shared, not copied — callers
    must treat them as read-only.
    """

    def __init__(self, query: ArrayLike) -> None:
        self._query = as_sequence(query, name="query")
        self._by_radius: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def query(self) -> np.ndarray:
        return self._query

    def get(self, radius: int) -> tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` envelope of the query at *radius* (cached)."""
        radius = int(radius)
        try:
            return self._by_radius[radius]
        except KeyError:
            envelope = keogh_envelope(self._query, radius)
            self._by_radius[radius] = envelope
            return envelope

    def __len__(self) -> int:
        return len(self._by_radius)
