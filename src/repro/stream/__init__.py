"""Streaming ingestion and live pattern monitoring for the ONEX base.

The demo's pitch is loading data "with a click"; this subsystem goes one
step further and keeps a built base live under continuous arrivals:

- :mod:`repro.stream.ingest` — :class:`StreamIngestor`, the write path:
  point appends grow the base's series (``OnexBase.grow_series``) and
  complete windows that are batch-assigned to similarity groups in place
  (append/rebuild result equivalence is the subsystem's core invariant,
  asserted by property tests).
- :mod:`repro.stream.spring_online` — a vectorised, exact SPRING matcher
  (Sakurai et al.) powering unconstrained subsequence match events.
- :mod:`repro.stream.monitor` — standing pattern queries: one batched
  DTW check of the newly indexed pattern-length windows plus the exact
  SPRING stream matcher, merged into one ordered event feed.
- :mod:`repro.stream.events` — the typed, sequence-numbered events.

:class:`repro.core.engine.OnexEngine` exposes the subsystem per loaded
dataset (``append_points`` / ``register_monitor`` / ``poll_events``), and
the server/CLI layers wire those through to HTTP and the shell.
"""

from repro.stream.events import StreamEvent
from repro.stream.ingest import StreamIngestor
from repro.stream.monitor import MonitorRegistry, PatternMonitor
from repro.stream.spring_online import OnlineSpringMatcher

__all__ = [
    "MonitorRegistry",
    "OnlineSpringMatcher",
    "PatternMonitor",
    "StreamEvent",
    "StreamIngestor",
]
