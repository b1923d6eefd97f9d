"""Zero-dependency span tracer with a null fast path when disabled.

A :class:`Trace` is a tree of :class:`Span` nodes rooted at the request
(or CLI invocation) being explained.  Activation is **thread-local** and
explicit: nothing records until a caller enters :func:`tracing`, so the
instrumentation scattered through the cascade costs one attribute probe
and a singleton return when disabled — measured in the load benchmark at
well under 2% of headline query latency (EXPERIMENTS.md E20).

Usage at an instrumentation site::

    with span("cascade.rep_dtw", length=bucket.length) as sp:
        ...
        sp.add(batch=int(take.size))

and at an activation site (the service layer's ``explain=True`` path)::

    with tracing(request_id) as trace:
        result = run_query()
    payload["explain"] = {"spans": trace.as_dict(), ...}

Spans started on *other* threads (the build pool, fast-mode batch
workers) do not attach to the activating thread's trace — the fan-out
layers therefore aggregate worker telemetry at their join points, which
is also where the deadline layer already observes them.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections.abc import Iterator
from typing import Any

__all__ = [
    "NULL_SPAN",
    "Span",
    "Trace",
    "current_trace",
    "new_request_id",
    "span",
    "tracing",
]

_STATE = threading.local()


def new_request_id() -> str:
    """A fresh 16-hex-char request ID (uuid4-derived)."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed node in a trace tree.

    ``attrs`` holds the static attributes given at entry; :meth:`add`
    accumulates numeric attributes discovered while the span is open
    (batch sizes, prune counts).  Durations come from
    ``time.perf_counter`` — monotonic, so children never outlast their
    parents by clock skew.
    """

    __slots__ = ("name", "attrs", "children", "_start", "duration_ms")

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self._start = 0.0
        self.duration_ms: float | None = None

    def add(self, **attrs: Any) -> None:
        """Accumulate numeric attributes; non-numeric values overwrite."""
        for key, value in attrs.items():
            old = self.attrs.get(key)
            if isinstance(old, (int, float)) and isinstance(
                value, (int, float)
            ):
                self.attrs[key] = old + value
            else:
                self.attrs[key] = value

    def as_dict(self) -> dict[str, Any]:
        node: dict[str, Any] = {"name": self.name}
        if self.duration_ms is not None:
            node["duration_ms"] = round(self.duration_ms, 4)
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        if self.children:
            node["children"] = [c.as_dict() for c in self.children]
        return node

    # Spans are context-managed only through the owning trace's stack;
    # see _LiveSpan below.


class _NullSpan:
    """Shared do-nothing span returned when no trace is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def add(self, **attrs: Any) -> None:
        return None


#: The singleton every ``span()`` call returns while tracing is off.
NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager binding a :class:`Span` to its trace's stack."""

    __slots__ = ("_trace", "_span")

    def __init__(self, trace: "Trace", node: Span) -> None:
        self._trace = trace
        self._span = node

    def __enter__(self) -> Span:
        node = self._span
        stack = self._trace._stack
        stack[-1].children.append(node)
        stack.append(node)
        node._start = time.perf_counter()
        return node

    def __exit__(self, *exc: object) -> None:
        node = self._span
        node.duration_ms = (time.perf_counter() - node._start) * 1000.0
        stack = self._trace._stack
        # Pop back to the parent even if an inner span leaked open
        # (exceptions unwind in __exit__ order, so this is just a guard).
        while stack and stack[-1] is not node:
            stack.pop()
        if stack:
            stack.pop()
        if not stack:  # never drop the root
            stack.append(self._trace.root)


class Trace:
    """A request-scoped span tree plus its identity."""

    def __init__(self, request_id: str | None = None) -> None:
        self.request_id = request_id or new_request_id()
        self.root = Span("trace", {})
        self._stack: list[Span] = [self.root]
        self._start = time.perf_counter()

    def finish(self) -> None:
        self.root.duration_ms = (time.perf_counter() - self._start) * 1000.0

    def spans(self) -> Iterator[Span]:
        """Every recorded span in pre-order (the synthetic root excluded)."""
        stack = list(reversed(self.root.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def span_count(self) -> int:
        return sum(1 for _ in self.spans())

    def as_dict(self) -> dict[str, Any]:
        return self.root.as_dict()


def current_trace() -> Trace | None:
    """The trace active on this thread, if any."""
    return getattr(_STATE, "trace", None)


def span(name: str, **attrs: Any):
    """A context manager recording one span — or :data:`NULL_SPAN`.

    This is the hot-path entry point: when no trace is active on the
    calling thread it allocates nothing and returns the shared null
    singleton.
    """
    trace = getattr(_STATE, "trace", None)
    if trace is None:
        return NULL_SPAN
    return _LiveSpan(trace, Span(name, attrs))


class tracing:
    """Activate a :class:`Trace` on this thread for the ``with`` body.

    Nests: the previous trace (if any) is restored on exit, so an
    explained request arriving mid-explained-request (in-process reuse)
    keeps each trace's spans separate.
    """

    __slots__ = ("_trace", "_previous")

    def __init__(self, request_id: str | None = None) -> None:
        self._trace = Trace(request_id)
        self._previous: Trace | None = None

    def __enter__(self) -> Trace:
        self._previous = getattr(_STATE, "trace", None)
        _STATE.trace = self._trace
        return self._trace

    def __exit__(self, *exc: object) -> None:
        self._trace.finish()
        _STATE.trace = self._previous
