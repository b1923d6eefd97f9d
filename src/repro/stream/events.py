"""Typed events emitted by the live pattern monitors.

Events are totally ordered by ``seq`` — a registry-wide monotonic counter
assigned at emission — so clients can poll incrementally with
``poll(since=last_seen_seq)`` without re-reading events.  The registry's
buffer is bounded (oldest evicted first), so a client that falls more
than the buffer size behind can lose events; the registry's ``dropped``
counter (surfaced by the ``poll_events`` operation) reports when that
happened.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StreamEvent"]

#: Exact SPRING subsequence match (unconstrained warping start/end).
KIND_MATCH = "match"
#: Window-aligned match: a newly indexed pattern-length window within epsilon.
KIND_WINDOW = "window"


@dataclass(frozen=True)
class StreamEvent:
    """One standing-query hit on a live series.

    ``kind`` is ``"match"`` for an exact SPRING subsequence match (the
    stream positions ``start``..``end`` inclusive warp onto the pattern
    within the monitor's epsilon) or ``"window"`` for a window-aligned
    match, a newly indexed window within epsilon (``end - start + 1``
    equals the pattern length).  ``distance`` is the summed L1 warping
    cost in the base's value space — the unit epsilon is expressed in.
    """

    seq: int
    monitor: str
    series: str
    kind: str
    start: int
    end: int
    distance: float

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def as_dict(self) -> dict:
        """JSON-ready payload (the protocol's ``poll_events`` result rows)."""
        return {
            "seq": self.seq,
            "monitor": self.monitor,
            "series": self.series,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "distance": self.distance,
        }
