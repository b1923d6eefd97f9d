"""Continuous ingestion into a built ONEX base.

:class:`StreamIngestor` is the write path of the live subsystem: point
appends to named series arrive in arbitrary chunks, land in grow-only
buffers (:mod:`repro.stream.buffer`), and are published to the base's
datasets as stable snapshots; every window the new points complete is
then indexed in place through the base's batched fixed-representative
assignment (:meth:`repro.core.base.OnexBase.index_new_windows`), and the
:class:`~repro.stream.monitor.MonitorRegistry` is notified so standing
queries fire.

The subsystem's central invariant is **append/rebuild equivalence**: after
any sequence of appends, the base indexes exactly the windows a
from-scratch ``build()`` over the same data would enumerate, with
identical values (normalisation is pointwise with the build-time bounds),
so exact-strategy query answers are identical to a rebuild's.  Group
*shapes* may differ — fixed-representative assignment can only create
extra groups, never violate the radius invariant — which affects
performance, not results.  The property-test suite asserts both halves.
"""

from __future__ import annotations

from numpy.typing import ArrayLike

from repro.core.base import OnexBase
from repro.core.deadline import Deadline
from repro.data.timeseries import TimeSeries
from repro.exceptions import DatasetError, ValidationError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.stream.buffer import SeriesBuffer
from repro.stream.events import StreamEvent
from repro.stream.monitor import MonitorRegistry

__all__ = ["StreamIngestor"]

_POINTS_TOTAL = REGISTRY.counter(
    "onex_stream_points_total", "Points appended through live ingestion"
)
_WINDOWS_TOTAL = REGISTRY.counter(
    "onex_stream_windows_indexed_total",
    "Windows indexed into the base by live ingestion",
)
_EVENTS_TOTAL = REGISTRY.counter(
    "onex_stream_events_total", "Monitor events emitted by live ingestion"
)
_ASSIGN_CENTROIDS = REGISTRY.counter(
    "onex_stream_assign_centroids_total",
    "(window, same-length representative) pairs in scope of live assignment",
)
_ASSIGN_EVALUATED = REGISTRY.counter(
    "onex_stream_assign_evaluated_total",
    "Pairs in scope the mean prescreen let through to exact ED_n",
)


class StreamIngestor:
    """Accepts live point appends and keeps one base queryable throughout."""

    def __init__(self, base: OnexBase, registry: MonitorRegistry | None = None) -> None:
        base.stats  # raises NotBuiltError early when unbuilt
        self._base = base
        self.registry = registry if registry is not None else MonitorRegistry(base)
        self._buffers: dict[str, SeriesBuffer] = {}
        self.points_ingested = 0
        self.windows_indexed = 0

    @property
    def base(self) -> OnexBase:
        return self._base

    def series_names(self) -> list[str]:
        """Names of the series that have received live appends."""
        return sorted(self._buffers)

    def append_points(
        self, series_name: str, values: ArrayLike, deadline: Deadline | None = None
    ) -> dict:
        """Append *values* to *series_name*, creating it on first contact.

        Raw values are normalised with the base's build-time bounds (the
        same contract as ``add_series``).  Newly completed windows are
        indexed immediately and standing monitors are notified; the
        summary reports the indexing outcome plus any events the append
        emitted.  A *deadline* bounds the monitor notification scan; the
        points themselves are already appended and indexed when it fires,
        so the raised error means lost *events*, not lost data.
        """
        if not isinstance(series_name, str) or not series_name:
            raise ValidationError("series name must be a non-empty string")
        buffer = self._buffers.get(series_name)
        raw_dataset = self._base.raw_dataset
        created_series = False
        if buffer is None:
            if series_name in raw_dataset:
                existing = raw_dataset[series_name]
                buffer = SeriesBuffer(
                    series_name,
                    self._base.normalization_bounds,
                    initial_raw=existing.values,
                    initial_norm=self._base.dataset[series_name].values,
                )
            else:
                buffer = SeriesBuffer(
                    series_name,
                    self._base.normalization_bounds,
                    channels=self._base.channels,
                )
                created_series = True
        previous_length = len(buffer)
        normalized_chunk = buffer.extend(values)
        # Register the buffer only once the chunk validated — a rejected
        # first append must not leave an orphan buffer shadowing the
        # (never created) series.
        self._buffers[series_name] = buffer
        self._publish(series_name, created_series)
        series_index = self._base.dataset.index_of(series_name)
        with span("stream.index", points=int(normalized_chunk.shape[0])) as sp:
            assignments = self._base.index_new_windows(
                series_index, previous_length
            )
            sp.add(
                windows=len(assignments),
                centroids=assignments.centroids,
                evaluated=assignments.evaluated,
            )
        with span("stream.scan", windows=len(assignments)) as sp:
            events = self.registry.on_points(
                series_name,
                previous_length,
                normalized_chunk,
                assignments,
                deadline,
            )
            sp.add(events=len(events))
        self.points_ingested += normalized_chunk.shape[0]
        self.windows_indexed += len(assignments)
        _POINTS_TOTAL.inc(int(normalized_chunk.shape[0]))
        _WINDOWS_TOTAL.inc(len(assignments))
        _EVENTS_TOTAL.inc(len(events))
        _ASSIGN_CENTROIDS.inc(assignments.centroids)
        _ASSIGN_EVALUATED.inc(assignments.evaluated)
        created_groups = int(assignments.created.sum())
        return {
            "series": series_name,
            "points": int(normalized_chunk.shape[0]),
            "total_points": len(buffer),
            "windows": len(assignments),
            "joined_existing_groups": len(assignments) - created_groups,
            "new_groups": created_groups,
            "events": [e.as_dict() for e in events],
        }

    def counters(self) -> dict:
        """Checkpointable lifetime counters."""
        return {
            "points_ingested": self.points_ingested,
            "windows_indexed": self.windows_indexed,
        }

    def restore_counters(
        self, points_ingested: int = 0, windows_indexed: int = 0
    ) -> None:
        """Seed lifetime counters from a checkpoint (recovery only)."""
        self.points_ingested = int(points_ingested)
        self.windows_indexed = int(windows_indexed)

    def poll_events(self, since: int = 0, limit: int | None = None) -> list[StreamEvent]:
        """Monitor events with ``seq > since`` (see the registry)."""
        return self.registry.poll(since, limit)

    def flush_monitors(self) -> list[StreamEvent]:
        """Flush pending SPRING candidates when a finite stream ends."""
        return self.registry.flush()

    def _publish(self, series_name: str, created_series: bool) -> None:
        """Swap the series' latest snapshots into the base's datasets.

        Snapshots are read-only views of grow-only buffers, so publishing
        costs O(1) regardless of history length; existing
        ``SubsequenceRef`` handles keep resolving to identical values.
        """
        buffer = self._buffers[series_name]
        raw_dataset = self._base.raw_dataset
        norm_dataset = self._base.dataset
        metadata = (
            raw_dataset[series_name].metadata
            if not created_series
            else {"stream": True}
        )
        raw = TimeSeries._wrap(series_name, buffer.raw_snapshot(), metadata)
        norm = TimeSeries._wrap(series_name, buffer.norm_snapshot(), metadata)
        if created_series:
            raw_dataset.add(raw)
            if norm_dataset is not raw_dataset:
                norm_dataset.add(norm)
        else:
            raw_dataset.replace_series(raw)
            if norm_dataset is not raw_dataset:
                norm_dataset.replace_series(norm)
