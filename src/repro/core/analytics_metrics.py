"""The ``onex_analytics_*`` pair the analytics operations publish into.

Seasonal mining, the sensitivity profile and the threshold recommender
share one labelled counter and one latency histogram (DESIGN.md §7);
they are registered here, once, and each operation reports its
completion through :func:`record`.
"""

from __future__ import annotations

import time

from repro.obs.metrics import REGISTRY

__all__ = ["record"]

_ANALYTICS_TOTAL = REGISTRY.counter(
    "onex_analytics_total", "Completed analytics operations by op"
)
_ANALYTICS_MS = REGISTRY.histogram(
    "onex_analytics_ms", "Analytics operation wall time (milliseconds)"
)


def record(op: str, started: float) -> None:
    """Count one completed *op* that began at ``perf_counter()`` *started*."""
    _ANALYTICS_TOTAL.inc(op=op)
    _ANALYTICS_MS.observe((time.perf_counter() - started) * 1000.0, op=op)
