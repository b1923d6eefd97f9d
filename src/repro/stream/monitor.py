"""Standing pattern queries over live series.

A :class:`PatternMonitor` watches appended data for one pattern and emits
two complementary event kinds (:class:`~repro.stream.events.StreamEvent`):

``"match"`` — exact SPRING subsequence matches.  Every appended point
    feeds a per-series :class:`~repro.stream.spring_online.OnlineSpringMatcher`,
    so matches may start and end anywhere (unconstrained warping), with
    the deferred-report rule guaranteeing each reported range is optimal
    among overlapping candidates.  These events are exact against a
    brute-force SPRING replay of the same stream.

``"window"`` — window-aligned hits.  The ingestor already names every
    newly completed pattern-length window (its
    :class:`~repro.core.base.WindowAssignments`); the monitor gathers those
    windows from the base's normalised series and verifies them all with
    one :func:`~repro.distances.dtw.dtw_distance_batch` call, emitting the
    windows whose DTW to the pattern is within epsilon, in start order.
    These events are exact against a brute-force scan of every completed
    window.

A :class:`MonitorRegistry` owns the monitors of one base, assigns the
registry-wide event sequence numbers, and buffers events for polling.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable

import numpy as np
from numpy.typing import ArrayLike

from repro.core.base import OnexBase, WindowAssignments
from repro.core.deadline import Deadline
from repro.distances.dtw import dtw_distance_batch
from repro.distances.metrics import as_sequence
from repro.exceptions import DatasetError, ValidationError
from repro.obs.metrics import REGISTRY
from repro.testing import faults
from repro.stream.events import KIND_MATCH, KIND_WINDOW, StreamEvent
from repro.stream.spring_online import OnlineSpringMatcher

__all__ = ["MonitorRegistry", "PatternMonitor"]

_CHECKED_TOTAL = REGISTRY.counter(
    "onex_stream_windows_checked_total",
    "Windows inspected by standing monitors",
)

#: Events a registry buffers for polling; the oldest are dropped first.
_MAX_EVENTS = 10_000


class PatternMonitor:
    """One standing pattern query (see module docstring for semantics).

    *pattern* is already in the base's value space (the engine normalises
    caller-supplied raw values); *epsilon* is a summed L1 warping cost in
    that space.  *series* restricts the monitor to one series name; None
    watches every live series.
    """

    def __init__(
        self,
        name: str,
        base: OnexBase,
        pattern: ArrayLike,
        epsilon: float,
        series: str | None = None,
    ) -> None:
        self.name = name
        self._base = base
        if base.channels > 1:
            # SPRING matching and the window check are defined over
            # scalar point streams; a multivariate standing query has no
            # exact online semantics here yet.
            raise ValidationError(
                f"standing monitors support univariate bases only; this "
                f"base has {base.channels} channels"
            )
        self._pattern = as_sequence(pattern, name="pattern")
        if self._pattern.shape[0] < 2:
            raise ValidationError("pattern must have at least 2 points")
        if not (epsilon > 0 and math.isfinite(epsilon)):
            # Checked here (not just in the lazily created matcher): a
            # monitor with a bad epsilon would otherwise poison every
            # later append to the watched series.
            raise ValidationError(
                f"epsilon must be positive and finite, got {epsilon}"
            )
        self._epsilon = float(epsilon)
        self._series = series
        self._matchers: dict[str, tuple[int, OnlineSpringMatcher]] = {}
        self.windows_checked = 0

    @property
    def pattern_length(self) -> int:
        return self._pattern.shape[0]

    @property
    def epsilon(self) -> float:
        return self._epsilon

    def watches(self, series_name: str) -> bool:
        """Whether this monitor applies to *series_name*."""
        return self._series is None or self._series == series_name

    def on_points(
        self, series_name: str, origin: int, values: np.ndarray
    ) -> list[tuple[str, int, int, float]]:
        """Feed appended points; return (series, start, end, distance) hits.

        *origin* is the absolute series position of ``values[0]``; the
        matcher for a series is created the first time data arrives, so
        reported positions are absolute from then on.
        """
        state = self._matchers.get(series_name)
        if state is None:
            state = (origin, OnlineSpringMatcher(self._pattern, self._epsilon))
            self._matchers[series_name] = state
        offset, matcher = state
        expected = offset + matcher.samples_seen
        if origin != expected:
            raise DatasetError(
                f"monitor {self.name!r} expected {series_name!r} to resume at "
                f"position {expected}, got {origin}"
            )
        return [
            (series_name, offset + m.start, offset + m.end, m.distance)
            for m in matcher.extend(values)
        ]

    def on_windows(
        self,
        assignments: WindowAssignments,
        deadline: Deadline | None = None,
    ) -> list[tuple[str, int, int, float]]:
        """Verify the newly indexed pattern-length windows; return the hits.

        A *deadline* is checked once, before the one batched DTW call, and
        always raises: a silently skipped window would be a lost match
        event, so there is no partial degrade on the monitor path.
        """
        m = self.pattern_length
        series = self._base.dataset[assignments.series_index]
        starts = assignments.starts[assignments.lengths == m]
        if not starts.size or not self.watches(series.name):
            return []
        faults.fire("stream.step")
        if deadline is not None:
            deadline.check("stream window scan", {"windows": int(starts.size)})
        self.windows_checked += int(starts.size)
        _CHECKED_TOTAL.inc(int(starts.size))
        rows = series.values[starts[:, None] + np.arange(m)]
        dists = dtw_distance_batch(self._pattern, rows)
        return [
            (series.name, start, start + m - 1, raw)
            for start, raw in zip(starts.tolist(), dists.tolist())
            if raw <= self._epsilon
        ]

    def flush(self) -> list[tuple[str, int, int, float]]:
        """Flush every matcher's pending candidate (end-of-stream report).

        Mirrors the reference matcher's ``finish``: intended when a
        finite stream ends; after a mid-stream flush a later, overlapping
        match can be reported again.
        """
        out: list[tuple[str, int, int, float]] = []
        for series_name, (offset, matcher) in self._matchers.items():
            out.extend(
                (series_name, offset + m.start, offset + m.end, m.distance)
                for m in matcher.finish()
            )
        return out

    def describe(self) -> dict:
        """Registration/introspection payload."""
        return {
            "monitor": self.name,
            "pattern_length": self.pattern_length,
            "epsilon": self._epsilon,
            "series": self._series,
            "windows_checked": self.windows_checked,
            # No window is skipped before its DTW; the key stays for
            # readers of this payload that still sum it.
            "windows_pruned": 0,
        }

    def snapshot(self) -> dict:
        """Checkpointable state: definition plus lifetime counters.

        The pattern is stored in the base's (normalised) value space, so
        a restore re-registers it verbatim without renormalising.  The
        per-series SPRING matcher state is deliberately *not* captured —
        see DESIGN.md §8 — so an in-flight cross-checkpoint match may be
        lost or re-reported after recovery.
        """
        return {
            "name": self.name,
            "pattern": [float(v) for v in self._pattern],
            "epsilon": self._epsilon,
            "series": self._series,
            "windows_checked": self.windows_checked,
        }


class MonitorRegistry:
    """All standing queries of one base, plus the shared event buffer.

    Events carry registry-wide monotonic sequence numbers; the buffer is
    bounded (``_MAX_EVENTS``, oldest dropped first) and polled
    incrementally with :meth:`poll`.
    """

    def __init__(self, base: OnexBase) -> None:
        self._base = base
        self._monitors: dict[str, PatternMonitor] = {}
        self._events: deque[StreamEvent] = deque(maxlen=_MAX_EVENTS)
        self._seq = 0
        self._dropped = 0

    def __len__(self) -> int:
        return len(self._monitors)

    @property
    def monitor_names(self) -> list[str]:
        return sorted(self._monitors)

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest event emitted so far."""
        return self._seq

    def register(
        self,
        pattern: ArrayLike,
        epsilon: float,
        *,
        series: str | None = None,
        name: str | None = None,
    ) -> PatternMonitor:
        """Create a standing query; returns the (named) monitor."""
        if name is None:
            name = f"monitor-{len(self._monitors) + 1}"
            while name in self._monitors:
                name = f"{name}+"
        if name in self._monitors:
            raise DatasetError(f"duplicate monitor name: {name!r}")
        monitor = PatternMonitor(name, self._base, pattern, epsilon, series)
        self._monitors[name] = monitor
        return monitor

    def unregister(self, name: str) -> None:
        try:
            del self._monitors[name]
        except KeyError:
            raise DatasetError(
                f"no monitor named {name!r} (registered: {self.monitor_names})"
            ) from None

    def monitor(self, name: str) -> PatternMonitor:
        try:
            return self._monitors[name]
        except KeyError:
            raise DatasetError(
                f"no monitor named {name!r} (registered: {self.monitor_names})"
            ) from None

    def on_points(
        self,
        series_name: str,
        origin: int,
        values: np.ndarray,
        assignments: WindowAssignments,
        deadline: Deadline | None = None,
    ) -> list[StreamEvent]:
        """Notify every applicable monitor of one append; emit its events.

        SPRING matches are emitted first (they were *reported* while the
        points arrived), then the window matches of the same append, each
        batch in stream order.
        """
        emitted: list[StreamEvent] = []
        for monitor in self._monitors.values():
            if not monitor.watches(series_name):
                continue
            for series, start, end, dist in monitor.on_points(
                series_name, origin, values
            ):
                emitted.append(self._emit(monitor, series, KIND_MATCH, start, end, dist))
            for series, start, end, dist in monitor.on_windows(
                assignments, deadline
            ):
                emitted.append(self._emit(monitor, series, KIND_WINDOW, start, end, dist))
        return emitted

    def flush(self) -> list[StreamEvent]:
        """Flush every monitor's pending SPRING candidates into events."""
        emitted: list[StreamEvent] = []
        for monitor in self._monitors.values():
            for series, start, end, dist in monitor.flush():
                emitted.append(
                    self._emit(monitor, series, KIND_MATCH, start, end, dist)
                )
        return emitted

    def _emit(
        self, monitor: PatternMonitor, series: str, kind: str, start: int, end: int, dist: float
    ) -> StreamEvent:
        self._seq += 1
        event = StreamEvent(
            seq=self._seq,
            monitor=monitor.name,
            series=series,
            kind=kind,
            start=start,
            end=end,
            distance=dist,
        )
        if len(self._events) == self._events.maxlen:
            self._dropped += 1
        self._events.append(event)
        return event

    def poll(self, since: int = 0, limit: int | None = None) -> list[StreamEvent]:
        """Events with ``seq > since``, oldest first, up to *limit*."""
        out = [e for e in self._events if e.seq > since]
        if limit is not None:
            out = out[: max(0, int(limit))]
        return out

    def snapshot(self) -> dict:
        """Checkpointable state: event seq plus every monitor definition.

        The event *buffer* is transient by contract (bounded, droppable)
        and is not captured; only the sequence counter is, so post-crash
        events continue the pre-crash numbering monotonically.
        """
        return {
            "event_seq": self._seq,
            "monitors": [
                self._monitors[name].snapshot()
                for name in sorted(self._monitors)
            ],
        }

    def restore(self, monitors: Iterable[dict], event_seq: int) -> None:
        """Rebuild monitors from :meth:`snapshot` output (recovery only).

        Must be called on a fresh registry; seeds the event sequence so
        the first post-recovery event continues the numbering.
        """
        if self._monitors or self._seq:
            raise DatasetError("restore() requires a fresh MonitorRegistry")
        for snap in monitors:
            monitor = self.register(
                np.asarray(snap["pattern"], dtype=np.float64),
                float(snap["epsilon"]),
                series=snap.get("series"),
                name=snap["name"],
            )
            monitor.windows_checked = int(snap.get("windows_checked", 0))
        self._seq = int(event_seq)

    @property
    def dropped(self) -> int:
        """Events evicted from the bounded buffer before being polled."""
        return self._dropped
