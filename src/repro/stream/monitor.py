"""Standing pattern queries over live series.

A :class:`PatternMonitor` watches appended data for one pattern and emits
two complementary event kinds (:class:`~repro.stream.events.StreamEvent`):

``"match"`` — exact SPRING subsequence matches.  Every appended point
    feeds a per-series :class:`~repro.stream.spring_online.OnlineSpringMatcher`,
    so matches may start and end anywhere (unconstrained warping), with
    the deferred-report rule guaranteeing each reported range is optimal
    among overlapping candidates.  These events are exact against a
    brute-force SPRING replay of the same stream.

``"window"`` — the ONEX group-level prefilter.  The ingestor assigns each
    newly completed pattern-length window to a similarity group anyway;
    the monitor prunes in two representative-layer stages.  First the
    base's representative table
    (:meth:`repro.core.base.RepresentativeTable.cheap_bounds`, shared
    with the query processor's rank stage; monitor DTW is unconstrained,
    so the applicable bounds are the endpoint LB_Kim and per-centroid
    min/max band — centroid Keogh envelopes only engage banded queries)
    gives a *cheap* lower bound on ``DTW(pattern, rep)`` with no DTW at
    all; a window whose group satisfies ``cheap - (2m-1) * cheb_radius >
    epsilon`` is discarded without the representative ever being
    DTW-evaluated.  Surviving groups get their exact representative DTW
    computed once, lazily, and cached; the tighter transfer bound
    ``DTW(p, rep) - (2m-1) * cheb_radius`` prunes again before any
    window pays an exact DTW verification.  Representatives never move
    (fixed-representative ingestion), so both caches stay valid; radii
    only grow, which keeps the bounds conservative.

A :class:`MonitorRegistry` owns the monitors of one base, assigns the
registry-wide event sequence numbers, and buffers events for polling.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable

import numpy as np
from numpy.typing import ArrayLike

from repro.core.base import LengthBucket, OnexBase, WindowAssignments
from repro.core.deadline import Deadline
from repro.distances.dtw import dtw_distance
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
_PRUNED_TOTAL = REGISTRY.counter(
    "onex_stream_windows_pruned_total",
    "Windows pruned by monitor representative bounds",
)
_MONITOR_DTW_TOTAL = REGISTRY.counter(
    "onex_stream_rep_dtw_total",
    "Representative DTW evaluations made by standing monitors",
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
            # SPRING matching and the representative transfer bounds are
            # defined over scalar point streams; a multivariate standing
            # query has no exact online semantics here yet.
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
        # Representative-layer caches over the pattern-length bucket,
        # extended as ingestion spawns groups: cheap summary bounds
        # (batched, no DTW) for every group, exact DTW(pattern, rep)
        # computed one group at a time only when the cheap bound cannot
        # prune (NaN = not yet needed).
        self._rep_lb = np.empty(0)
        self._rep_dtw = np.empty(0)
        self.windows_checked = 0
        self.windows_pruned = 0
        self.rep_dtw_calls = 0

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
        """Group-prefilter the newly indexed windows; return verified hits.

        A *deadline* is checked per pattern-length window and always
        raises: a silently skipped window would be a lost match event, so
        there is no partial degrade on the monitor path.
        """
        m = self.pattern_length
        out: list[tuple[str, int, int, float]] = []
        try:
            bucket = self._base.bucket(m)
        except DatasetError:
            return out  # pattern length not indexed: no window-aligned view
        max_path = 2 * m - 1
        dataset = self._base.dataset
        series = dataset[assignments.series_index]
        series_name = series.name
        if not self.watches(series_name):
            return out
        before = (self.windows_checked, self.windows_pruned, self.rep_dtw_calls)
        aligned = assignments.lengths == m
        for scanned, (start, g) in enumerate(
            zip(
                assignments.starts[aligned].tolist(),
                assignments.groups[aligned].tolist(),
            )
        ):
            faults.fire("stream.step")
            if deadline is not None:
                deadline.check(
                    "stream window scan",
                    {"windows_scanned": scanned, "hits": len(out)},
                )
            self.windows_checked += 1
            if g >= self._rep_lb.shape[0]:
                self._extend_rep_cache(bucket)
            cheb = float(bucket.cheb_radii[g])
            if self._rep_lb[g] - max_path * cheb > self._epsilon:
                # The cheap summary bound already rules the whole group
                # out — the representative never gets a DTW call.
                self.windows_pruned += 1
                continue
            raw_rep = float(self._rep_dtw[g])
            if math.isnan(raw_rep):
                raw_rep = float(dtw_distance(self._pattern, bucket.centroids[g]))
                self._rep_dtw[g] = raw_rep
                self.rep_dtw_calls += 1
            if raw_rep - max_path * cheb > self._epsilon:
                self.windows_pruned += 1
                continue
            if cheb == 0.0:
                # Every member of a zero-radius group equals the
                # representative, so the cached representative DTW *is*
                # the exact distance (fresh singletons hit this path).
                raw = raw_rep
            else:
                raw = float(dtw_distance(self._pattern, series.subsequence(start, m)))
            if raw <= self._epsilon:
                out.append((series_name, start, start + m - 1, raw))
        _CHECKED_TOTAL.inc(self.windows_checked - before[0])
        _PRUNED_TOTAL.inc(self.windows_pruned - before[1])
        _MONITOR_DTW_TOTAL.inc(self.rep_dtw_calls - before[2])
        return out

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

    def _extend_rep_cache(self, bucket: LengthBucket) -> None:
        """Extend the cheap-bound cache to newly spawned groups.

        The cheap bounds come from the base's representative table in one
        batched evaluation (no DTW); the exact slots are seeded NaN and
        filled one group at a time when the cheap bound cannot prune.
        """
        table = self._base.rep_table
        known = self._rep_lb.shape[0]
        fresh = table.cheap_bounds(
            self._pattern, table.rows_of([bucket.length])[known:]
        )
        self._rep_lb = np.concatenate([self._rep_lb, fresh])
        self._rep_dtw = np.concatenate(
            [self._rep_dtw, np.full(fresh.shape[0], np.nan)]
        )

    def describe(self) -> dict:
        """Registration/introspection payload."""
        return {
            "monitor": self.name,
            "pattern_length": self.pattern_length,
            "epsilon": self._epsilon,
            "series": self._series,
            "windows_checked": self.windows_checked,
            "windows_pruned": self.windows_pruned,
            "rep_dtw_calls": self.rep_dtw_calls,
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
            "windows_pruned": self.windows_pruned,
            "rep_dtw_calls": self.rep_dtw_calls,
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
        points arrived), then the prefiltered window matches of the same
        append, each batch in stream order.
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
            monitor.windows_pruned = int(snap.get("windows_pruned", 0))
            monitor.rep_dtw_calls = int(snap.get("rep_dtw_calls", 0))
        self._seq = int(event_seq)

    @property
    def dropped(self) -> int:
        """Events evicted from the bounded buffer before being polled."""
        return self._dropped
