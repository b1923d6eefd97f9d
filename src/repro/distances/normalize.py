"""Normalisation utilities and streaming statistics.

ONEX min–max normalises every dataset to [0, 1] at load time so that one
similarity threshold is meaningful across indicators measured on different
scales (§3.3 of the paper: growth-rate percentages vs unemployment counts).
The UCR Suite baseline instead requires z-normalisation of every candidate
window; :func:`sliding_mean_std` provides the O(n) cumulative-sum machinery
it needs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "RunningStats",
    "minmax_normalize",
    "minmax_params",
    "sliding_mean_std",
    "znormalize",
]

#: Spread below which a sequence is treated as constant (avoids dividing
#: by a denormal spread and exploding round-off noise).
_FLAT_EPS = 1e-12

#: A running-sum variance below this fraction of the series' mean square
#: per window is within reach of float64 cancellation error.
_CANCELLATION_FLOOR = 1e-6


def minmax_params(values) -> tuple[float, float]:
    """Return ``(lo, hi)`` bounds used for min–max scaling of *values*."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("cannot normalise an empty array")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("values contain NaN or infinite entries")
    return float(arr.min()), float(arr.max())


def minmax_normalize(values, *, lo: float | None = None, hi: float | None = None) -> np.ndarray:
    """Scale *values* affinely so that [lo, hi] maps to [0, 1].

    When *lo*/*hi* are omitted they are taken from the data itself.  A flat
    input (hi == lo) maps to all zeros rather than raising, matching how
    ONEX treats constant indicator series.  Passing dataset-level bounds
    keeps all series of a collection on a common scale, which is what the
    ONEX base construction assumes.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("cannot normalise an empty array")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("values contain NaN or infinite entries")
    if lo is None or hi is None:
        data_lo, data_hi = minmax_params(arr)
        lo = data_lo if lo is None else lo
        hi = data_hi if hi is None else hi
    if hi < lo:
        raise ValidationError(f"hi ({hi}) must be >= lo ({lo})")
    spread = hi - lo
    if spread <= _FLAT_EPS:
        return np.zeros_like(arr)
    return (arr - lo) / spread


def znormalize(values, *, eps: float = _FLAT_EPS) -> np.ndarray:
    """Subtract the mean and divide by the standard deviation.

    Flat sequences (std <= eps) are returned as all zeros — the same
    convention the original UCR Suite code uses, and the one our UCR Suite
    baseline relies on.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("cannot normalise an empty array")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("values contain NaN or infinite entries")
    mean = arr.mean()
    std = arr.std()
    if std <= eps:
        return np.zeros_like(arr)
    return (arr - mean) / std


def sliding_mean_std(values, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std of every length-*window* sliding window, in O(n).

    Uses cumulative sums (the trick from Rakthanmanon et al., SIGKDD 2012)
    so the UCR Suite baseline can z-normalise candidate windows lazily
    without touching each window's points twice.  Returns two arrays of
    length ``len(values) - window + 1``.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"values must be 1-D, got shape {arr.shape}")
    if window <= 0:
        raise ValidationError(f"window must be positive, got {window}")
    if window > arr.size:
        raise ValidationError(
            f"window ({window}) longer than values ({arr.size})"
        )
    csum = np.concatenate(([0.0], np.cumsum(arr)))
    csq = np.concatenate(([0.0], np.cumsum(arr * arr)))
    totals = csum[window:] - csum[:-window]
    squares = csq[window:] - csq[:-window]
    mean = totals / window
    # Clamp tiny negative round-off before the sqrt.
    var = np.maximum(squares / window - mean * mean, 0.0)
    std = np.sqrt(var)
    # The cumulative-sum differences cancel catastrophically for a window
    # whose spread is tiny next to the series' magnitude (it would read as
    # flat, or as noise): recompute those few windows two-pass, exactly as
    # :func:`znormalize` does, so both agree on which windows are flat.
    suspect = np.flatnonzero(var <= _CANCELLATION_FLOOR * csq[-1] / window)
    if suspect.size:
        windows = np.lib.stride_tricks.sliding_window_view(arr, window)[suspect]
        mean[suspect] = windows.mean(axis=1)
        std[suspect] = windows.std(axis=1)
    return mean, std


class RunningStats:
    """Welford online mean/variance accumulator.

    The ONEX threshold recommender streams sampled pairwise distances
    through one of these to derive data-driven threshold suggestions
    without materialising the full distance matrix.
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def push(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        if not math.isfinite(value):
            raise ValidationError(f"non-finite observation: {value!r}")
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values) -> None:
        """Push every element of an iterable of floats."""
        for value in values:
            self.push(float(value))

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValidationError("no observations pushed yet")
        return self._mean

    @property
    def variance(self) -> float:
        """Population variance of the observations seen so far."""
        if self._count == 0:
            raise ValidationError("no observations pushed yet")
        return self._m2 / self._count

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        if self._count == 0:
            raise ValidationError("no observations pushed yet")
        return self._min

    @property
    def maximum(self) -> float:
        if self._count == 0:
            raise ValidationError("no observations pushed yet")
        return self._max

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._count == 0:
            return "RunningStats(empty)"
        return (
            f"RunningStats(count={self._count}, mean={self._mean:.6g}, "
            f"std={self.std:.6g}, min={self._min:.6g}, max={self._max:.6g})"
        )
