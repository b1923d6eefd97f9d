"""Grow-only value buffers backing live series.

A :class:`SeriesBuffer` keeps one streaming series' raw and normalised
observations in amortised-doubling arrays, so per-point appends cost O(1)
instead of reallocating the whole history, and hands out *stable
snapshots*: read-only views of the first ``n`` entries.  A snapshot stays
valid forever because appends only ever write past the snapshotted range
(growth reallocates into a fresh array, leaving old views untouched),
which is what lets the ingestor publish a new :class:`~repro.data.timeseries.TimeSeries`
per append without copying the history.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from repro.core.base import _grown
from repro.distances.normalize import minmax_normalize
from repro.exceptions import ValidationError

__all__ = ["SeriesBuffer"]

#: Initial capacity of a fresh buffer.
_MIN_CAPACITY = 64


class _GrowArray:
    """Float64 array growable along axis 0 by amortised doubling.

    Rows are scalars for univariate series and ``(channels,)`` vectors for
    multivariate ones; growth preserves the trailing shape.
    """

    __slots__ = ("_data", "_count")

    def __init__(
        self, initial: np.ndarray | None = None, channels: int = 1
    ) -> None:
        tail = () if channels == 1 else (channels,)
        if initial is None:
            self._data = np.empty((_MIN_CAPACITY,) + tail, dtype=np.float64)
            self._count = 0
        else:
            self._count = initial.shape[0]
            self._data = np.empty(
                (max(_MIN_CAPACITY, 2 * self._count),) + initial.shape[1:],
                dtype=np.float64,
            )
            self._data[: self._count] = initial

    def __len__(self) -> int:
        return self._count

    def extend(self, values: np.ndarray) -> None:
        needed = self._count + values.shape[0]
        if needed > self._data.shape[0]:
            self._data = _grown(
                self._data, self._count, minimum=_MIN_CAPACITY, needed=needed
            )
        self._data[self._count : needed] = values
        self._count = needed

    def snapshot(self) -> np.ndarray:
        """Read-only view of the first ``len(self)`` entries (stable)."""
        view = self._data[: self._count]
        view.flags.writeable = False
        return view


class SeriesBuffer:
    """Raw + normalised history of one live series.

    *bounds* are the base's build-time normalisation bounds (or None for
    an unnormalised base); normalisation is pointwise, so normalising each
    arriving chunk with the fixed bounds equals normalising the whole
    series at once — the append/rebuild equivalence the stream subsystem
    guarantees rests on that.
    """

    def __init__(
        self,
        name: str,
        bounds: tuple[float, float] | None,
        initial_raw: np.ndarray | None = None,
        initial_norm: np.ndarray | None = None,
        channels: int = 1,
    ) -> None:
        self.name = name
        self._bounds = bounds
        self._channels = channels if initial_raw is None else (
            1 if initial_raw.ndim == 1 else int(initial_raw.shape[1])
        )
        self._raw = _GrowArray(initial_raw, channels=self._channels)
        self._norm = (
            self._raw
            if bounds is None
            else _GrowArray(initial_norm, channels=self._channels)
        )

    @property
    def channels(self) -> int:
        return self._channels

    def __len__(self) -> int:
        return len(self._raw)

    def extend(self, values: ArrayLike) -> np.ndarray:
        """Append a chunk; returns the normalised chunk just appended."""
        chunk = np.asarray(values, dtype=np.float64)
        if self._channels == 1:
            if chunk.ndim != 1 or chunk.size == 0:
                raise ValidationError(
                    f"appended values must be a non-empty 1-D sequence, got "
                    f"shape {chunk.shape}"
                )
        elif (
            chunk.ndim != 2
            or chunk.shape[0] == 0
            or chunk.shape[1] != self._channels
        ):
            raise ValidationError(
                f"appended values must be a non-empty (points, "
                f"{self._channels}) array for this {self._channels}-channel "
                f"series, got shape {chunk.shape}"
            )
        if not np.all(np.isfinite(chunk)):
            raise ValidationError("appended values contain NaN/inf")
        self._raw.extend(chunk)
        if self._bounds is None:
            return chunk
        lo, hi = self._bounds
        normalized = minmax_normalize(chunk, lo=lo, hi=hi)
        self._norm.extend(normalized)
        return normalized

    def raw_snapshot(self) -> np.ndarray:
        """Stable read-only view of the raw history."""
        return self._raw.snapshot()

    def norm_snapshot(self) -> np.ndarray:
        """Stable read-only view of the normalised history."""
        return self._norm.snapshot()
