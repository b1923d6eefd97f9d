"""Heterogeneous time series collections and subsequence enumeration.

A :class:`TimeSeriesDataset` is what the analyst loads into ONEX (§4 "Data
Loading into ONEX"): a set of named, variable-length series.  The ONEX base
is built over *every contiguous subsequence* of every series within a
length range, so the dataset exposes an enumeration API returning
lightweight :class:`SubsequenceRef` handles instead of copies — with tens
of thousands of windows, materialising them all would defeat the point.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.data.timeseries import TimeSeries
from repro.distances.normalize import minmax_normalize
from repro.exceptions import DatasetError, ValidationError

__all__ = ["SubsequenceRef", "TimeSeriesDataset"]


class SubsequenceRef(NamedTuple):
    """Lightweight handle to one window of one series in a dataset.

    ``(series_index, start, length)`` fully identifies the window; resolve
    it to values with :meth:`TimeSeriesDataset.values`.  A named tuple —
    ordering, equality, and hashing are field-tuple semantics (as with
    the earlier frozen dataclass), and construction is cheap enough to
    materialise every member handle of a multi-thousand-group base
    without showing up in the build profile.
    """

    series_index: int
    start: int
    length: int

    @property
    def stop(self) -> int:
        return self.start + self.length

    def overlaps(self, other: "SubsequenceRef") -> bool:
        """True when both refs address overlapping windows of one series."""
        if self.series_index != other.series_index:
            return False
        return self.start < other.stop and other.start < self.stop


class TimeSeriesDataset:
    """An ordered collection of uniquely named :class:`TimeSeries`."""

    def __init__(self, series: Iterable[TimeSeries] = (), *, name: str = "dataset") -> None:
        self._name = name
        self._series: list[TimeSeries] = []
        self._index_by_name: dict[str, int] = {}
        for item in series:
            self.add(item)

    # ------------------------------------------------------------------
    # Collection basics
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    def add(self, series: TimeSeries) -> None:
        """Append a series; names must be unique, channel counts uniform."""
        if not isinstance(series, TimeSeries):
            raise ValidationError(f"expected TimeSeries, got {type(series).__name__}")
        if series.name in self._index_by_name:
            raise DatasetError(f"duplicate series name: {series.name!r}")
        if self._series and series.channels != self._series[0].channels:
            raise ValidationError(
                f"series {series.name!r} has {series.channels} channel(s) "
                f"but dataset {self._name!r} holds "
                f"{self._series[0].channels}-channel series"
            )
        self._index_by_name[series.name] = len(self._series)
        self._series.append(series)

    @property
    def channels(self) -> int:
        """Channels per series (uniform across the collection; 1 if empty)."""
        return self._series[0].channels if self._series else 1

    def replace_series(self, series: TimeSeries) -> None:
        """Swap in a new version of an existing series (same name/index).

        ``OnexBase.grow_series`` uses this to swap in a longer view of a
        growing series: existing :class:`SubsequenceRef` handles stay
        valid because positions keep their index and growth never
        rewrites old observations.
        """
        if not isinstance(series, TimeSeries):
            raise ValidationError(f"expected TimeSeries, got {type(series).__name__}")
        try:
            index = self._index_by_name[series.name]
        except KeyError:
            raise DatasetError(
                f"no series named {series.name!r} in {self._name!r}"
            ) from None
        if series.channels != self._series[index].channels:
            raise ValidationError(
                f"series {series.name!r}: cannot change channel count from "
                f"{self._series[index].channels} to {series.channels}"
            )
        self._series[index] = series

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterator[TimeSeries]:
        return iter(self._series)

    def __getitem__(self, key: int | str) -> TimeSeries:
        if isinstance(key, str):
            try:
                return self._series[self._index_by_name[key]]
            except KeyError:
                raise DatasetError(f"no series named {key!r} in {self._name!r}") from None
        return self._series[key]

    def __contains__(self, name: str) -> bool:
        return name in self._index_by_name

    @property
    def names(self) -> list[str]:
        return [s.name for s in self._series]

    def index_of(self, name: str) -> int:
        try:
            return self._index_by_name[name]
        except KeyError:
            raise DatasetError(f"no series named {name!r} in {self._name!r}") from None

    # ------------------------------------------------------------------
    # Values and normalisation
    # ------------------------------------------------------------------

    def values(self, ref: SubsequenceRef) -> np.ndarray:
        """Resolve a :class:`SubsequenceRef` to its (read-only view) values."""
        if ref.series_index < 0 or ref.series_index >= len(self._series):
            raise DatasetError(f"series index {ref.series_index} out of range")
        return self._series[ref.series_index].subsequence(ref.start, ref.length)

    def global_bounds(self) -> tuple[float, float]:
        """(min, max) over every observation in the collection."""
        if not self._series:
            raise DatasetError("dataset is empty")
        lo = min(float(s.values.min()) for s in self._series)
        hi = max(float(s.values.max()) for s in self._series)
        return lo, hi

    def normalized(self) -> "TimeSeriesDataset":
        """Collection-level min–max normalisation to [0, 1].

        ONEX normalises at load time with *shared* bounds so that
        cross-series comparisons remain meaningful; per-series scaling
        would erase exactly the level differences analysts look for.
        """
        lo, hi = self.global_bounds()
        out = TimeSeriesDataset(name=self._name)
        for s in self._series:
            out.add(s.with_values(minmax_normalize(s.values, lo=lo, hi=hi)))
        return out

    # ------------------------------------------------------------------
    # Subsequence enumeration
    # ------------------------------------------------------------------

    def length_range(self) -> tuple[int, int]:
        """(shortest, longest) series length in the collection."""
        if not self._series:
            raise DatasetError("dataset is empty")
        lengths = [len(s) for s in self._series]
        return min(lengths), max(lengths)

    def iter_subsequences(
        self, length: int, *, step: int = 1
    ) -> Iterator[SubsequenceRef]:
        """All windows of exactly *length*, series by series, left to right."""
        if length <= 0:
            raise ValidationError(f"length must be positive, got {length}")
        if step <= 0:
            raise ValidationError(f"step must be positive, got {step}")
        for idx, series in enumerate(self._series):
            for start in range(0, len(series) - length + 1, step):
                yield SubsequenceRef(idx, start, length)

    def subsequence_matrix(self, length: int, *, step: int = 1) -> tuple[np.ndarray, list[SubsequenceRef]]:
        """Stack every window of *length* into a 2-D array.

        Returns ``(matrix, refs)`` with ``matrix[k]`` holding the values of
        ``refs[k]`` — channel-flattened to width ``length * channels`` for
        multivariate collections.  Used by the brute-force scan and the
        seasonal miner; the rows come from one strided
        :func:`repro.data.windows.window_view` gather per series (no
        per-window copy loop), stacked into one owned array.
        """
        from repro.data.windows import window_matrix

        refs = list(self.iter_subsequences(length, step=step))
        if not refs:
            return np.empty((0, length)), refs
        matrix, _ = window_matrix([s.values for s in self._series], length, step)
        return matrix, refs

    # ------------------------------------------------------------------
    # Convenience constructors and summaries
    # ------------------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        arrays: Sequence,
        *,
        names: Sequence[str] | None = None,
        name: str = "dataset",
    ) -> "TimeSeriesDataset":
        """Build a dataset from raw arrays, auto-naming ``series-<k>``."""
        out = cls(name=name)
        for k, values in enumerate(arrays):
            label = names[k] if names is not None else f"series-{k}"
            out.add(TimeSeries(label, values))
        return out

    def describe(self) -> dict:
        """Summary statistics used by the overview pane and logs."""
        if not self._series:
            return {"name": self._name, "series": 0}
        lengths = np.array([len(s) for s in self._series])
        lo, hi = self.global_bounds()
        return {
            "name": self._name,
            "series": len(self._series),
            "channels": self.channels,
            "total_points": int(lengths.sum()),
            "min_length": int(lengths.min()),
            "max_length": int(lengths.max()),
            "value_min": lo,
            "value_max": hi,
        }

    def __repr__(self) -> str:
        return f"TimeSeriesDataset({self._name!r}, series={len(self._series)})"
