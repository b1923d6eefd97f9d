"""Continuous ingestion into a built ONEX base.

:class:`StreamIngestor` is the write path of the live subsystem: point
appends to named series arrive in arbitrary chunks and grow the base's
series through :meth:`repro.core.base.OnexBase.grow_series`; every window
the new points complete is then indexed in place through the base's
batched fixed-representative assignment
(:meth:`repro.core.base.OnexBase.index_new_windows`), and the
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
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
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

    def __init__(self, base: OnexBase) -> None:
        base.stats  # raises NotBuiltError early when unbuilt
        self._base = base
        self.registry = MonitorRegistry(base)

    @property
    def base(self) -> OnexBase:
        return self._base

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
        series_index, previous_length, normalized_chunk = self._base.grow_series(
            series_name, values, {"stream": True}
        )
        points = len(normalized_chunk)
        with span("stream.index", points=points) as sp:
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
        _POINTS_TOTAL.inc(points)
        _WINDOWS_TOTAL.inc(len(assignments))
        _EVENTS_TOTAL.inc(len(events))
        _ASSIGN_CENTROIDS.inc(assignments.centroids)
        _ASSIGN_EVALUATED.inc(assignments.evaluated)
        created_groups = int(assignments.created.sum())
        return {
            "series": series_name,
            "points": points,
            "total_points": previous_length + points,
            "windows": len(assignments),
            "joined_existing_groups": len(assignments) - created_groups,
            "new_groups": created_groups,
            "events": [e.as_dict() for e in events],
        }
