"""Typed JSON envelopes for the client/server API.

A request is ``{"op": <operation>, "params": {...}}`` with an optional
``"request_id"`` correlation string; a response is ``{"ok": true,
"result": ...}`` or ``{"ok": false, "error": {"type": ..., "message":
...}}``, echoing the request's ``request_id`` when one was assigned
(clients mint one per call; the server mints one for bare requests).
Parsing is strict: unknown operations, missing parameters, and
non-object envelopes raise :class:`ProtocolError` before any engine
code runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any

from repro.exceptions import ProtocolError

__all__ = [
    "DURABLE_OPERATIONS",
    "OPERATIONS",
    "OPERATION_OPTIONS",
    "POOL_DISPATCHED_OPERATIONS",
    "READ_ONLY_OPERATIONS",
    "Request",
    "Response",
]

#: Operation name -> required parameter names.
OPERATIONS: dict[str, tuple[str, ...]] = {
    "list_datasets": (),
    "load_dataset": ("source",),
    "describe": ("dataset",),
    "overview": ("dataset",),
    "query_preview": ("dataset", "series"),
    "best_match": ("dataset", "query"),
    "k_best": ("dataset", "query", "k"),
    "query_batch": ("dataset", "queries"),
    "matches_within": ("dataset", "query", "threshold"),
    "seasonal": ("dataset", "series", "length"),
    "sensitivity": ("dataset", "query", "thresholds"),
    "thresholds": ("dataset", "length"),
    "unload_dataset": ("dataset",),
    "save_base": ("dataset", "path"),
    "add_series": ("dataset", "name", "values"),
    "append_points": ("dataset", "series", "values"),
    "register_monitor": ("dataset", "pattern"),
    "unregister_monitor": ("dataset", "monitor"),
    "poll_events": ("dataset",),
    "flush_monitors": ("dataset",),
}

#: Optional deadline parameters accepted by the long-running operations
#: (validated in the service layer, :mod:`repro.core.validation`):
#:
#: ``timeout_ms``
#:     Positive, finite millisecond budget for the whole operation,
#:     checked cooperatively at the engine's chunk boundaries.  An
#:     exceeded budget returns a structured ``DeadlineExceeded`` error
#:     whose ``details`` report the stage reached, progress counters, and
#:     the best verified candidate so far.
#: ``allow_partial``
#:     Boolean.  Operations that support graceful degradation (the
#:     query family, seasonal mining) return their best verified partial
#:     result — matches flagged ``"exact": false`` — instead of erroring.
#:     The sensitivity profile and ``load_dataset`` always raise: a
#:     partial profile or a partially built base would be misleading.
#: ``explain``
#:     Boolean (query family, analytics, ``append_points``).  The
#:     operation runs inside an activated trace and the result payload
#:     carries an ``"explain"`` object — request ID, span tree, and (for
#:     queries) cascade counters.  Tracing is pure observation: the
#:     matches are bit-identical to the unexplained call
#:     (property-tested).
#: ``metric``
#:     Distance metric name (query family).  Must be registered in
#:     :data:`repro.distances.registry.REGISTRY` (e.g. ``"dtw"``,
#:     ``"euclidean"``, ``"cityblock"``, ``"chebyshev"``,
#:     ``"derivative_dtw"``, ``"weighted_dtw"``); unknown names fail
#:     with a ``ValidationError`` before any query work runs.  Omitted,
#:     the server's configured default (DTW) applies.
OPERATION_OPTIONS: dict[str, tuple[str, ...]] = {
    "best_match": ("timeout_ms", "allow_partial", "explain", "metric"),
    "k_best": ("timeout_ms", "allow_partial", "explain", "metric"),
    "query_batch": ("timeout_ms", "allow_partial", "explain", "metric"),
    "matches_within": ("timeout_ms", "allow_partial", "explain", "metric"),
    "seasonal": ("timeout_ms", "allow_partial", "explain"),
    "sensitivity": ("timeout_ms", "explain"),
    "load_dataset": ("timeout_ms",),
    "append_points": ("timeout_ms", "explain"),
}

#: Operations that only read engine state.  The HTTP front end grants
#: these a shared (read) lock on their target dataset so concurrent
#: exploration never serialises; every other operation mutates and takes
#: the exclusive (write) side.
READ_ONLY_OPERATIONS: frozenset[str] = frozenset(
    {
        "list_datasets",
        "describe",
        "overview",
        "query_preview",
        "best_match",
        "k_best",
        "query_batch",
        "matches_within",
        "seasonal",
        "sensitivity",
        "thresholds",
        "poll_events",
    }
)

#: Read-only operations the supervisor hands to pool workers: everything
#: answerable from an mmap-attached base snapshot alone.
#: ``list_datasets`` and ``poll_events`` stay supervisor-local — the
#: dataset table and the streaming event registry live in the supervisor
#: process, not in the published snapshots.  A worker crash mid-dispatch
#: re-dispatches any of these transparently (they provably ran read-only).
POOL_DISPATCHED_OPERATIONS: frozenset[str] = frozenset(
    {
        "describe",
        "overview",
        "query_preview",
        "best_match",
        "k_best",
        "query_batch",
        "matches_within",
        "seasonal",
        "sensitivity",
        "thresholds",
    }
)

#: Mutating operations covered by the durability layer: each is recorded
#: in the dataset's write-ahead log *before* it is acknowledged, and its
#: outcome is remembered per ``request_id`` in the idempotency window —
#: which is what makes a client retry of one of these safe (a duplicate
#: request id returns the recorded response instead of re-executing).
#: ``load_dataset``/``unload_dataset`` are deliberately absent: loading
#: is made durable by its initial checkpoint, not by WAL replay, and
#: unloading deletes the durable state outright.
DURABLE_OPERATIONS: frozenset[str] = frozenset(
    {
        "append_points",
        "add_series",
        "register_monitor",
        "unregister_monitor",
    }
)


@dataclass(frozen=True)
class Request:
    """A validated client request.

    ``request_id`` is an optional caller-minted correlation string; it
    is echoed in the response envelope, the ``X-Request-Id`` header, and
    every structured log line the request produces.
    """

    op: str
    params: dict[str, Any] = field(default_factory=dict)
    request_id: str | None = None

    def __post_init__(self) -> None:
        if self.op not in OPERATIONS:
            raise ProtocolError(
                f"unknown operation {self.op!r} (known: {sorted(OPERATIONS)})"
            )
        missing = [name for name in OPERATIONS[self.op] if name not in self.params]
        if missing:
            raise ProtocolError(f"operation {self.op!r} missing params: {missing}")
        if self.request_id is not None and (
            not isinstance(self.request_id, str) or not self.request_id
        ):
            raise ProtocolError("'request_id' must be a non-empty string")

    @classmethod
    def from_json(cls, text: str | bytes) -> "Request":
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
            # Binary bodies can fail inside codec detection before JSON
            # parsing proper, hence the wider net.
            raise ProtocolError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def from_dict(cls, payload: Any) -> "Request":
        if not isinstance(payload, dict):
            raise ProtocolError("request must be a JSON object")
        if "op" not in payload:
            raise ProtocolError("request missing 'op'")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ProtocolError("'params' must be an object")
        extra = set(payload) - {"op", "params", "request_id"}
        if extra:
            raise ProtocolError(f"unexpected request fields: {sorted(extra)}")
        return cls(
            op=str(payload["op"]),
            params=params,
            request_id=payload.get("request_id"),
        )

    def to_json(self) -> str:
        envelope: dict[str, Any] = {"op": self.op, "params": self.params}
        if self.request_id is not None:
            envelope["request_id"] = self.request_id
        return json.dumps(envelope)


@dataclass(frozen=True)
class Response:
    """A server response: a result or a typed error.

    ``error_details`` carries an optional structured payload alongside
    the type/message pair — e.g. a ``DeadlineExceeded``'s stage,
    progress counters, and best verified candidate.
    """

    ok: bool
    result: Any = None
    error_type: str | None = None
    error_message: str | None = None
    error_details: dict | None = None
    request_id: str | None = None

    def with_request_id(self, request_id: str | None) -> "Response":
        """A copy echoing *request_id* (no-op when none was assigned)."""
        if request_id is None:
            return self
        return replace(self, request_id=request_id)

    @classmethod
    def success(cls, result: Any) -> "Response":
        return cls(ok=True, result=result)

    @classmethod
    def failure(cls, exc: Exception) -> "Response":
        details = None
        details_fn = getattr(exc, "details", None)
        if callable(details_fn):
            try:
                details = details_fn()
            except Exception:
                details = None
        return cls(
            ok=False,
            error_type=type(exc).__name__,
            error_message=str(exc),
            error_details=details,
        )

    @classmethod
    def internal_error(cls, exc: Exception) -> "Response":
        """Envelope for unexpected (non-contract) failures.

        The error type is the stable ``"InternalError"`` marker — clients
        must not dispatch on arbitrary exception class names leaking out
        of library internals — with the original type preserved in the
        message for debugging.
        """
        return cls(
            ok=False,
            error_type="InternalError",
            error_message=f"{type(exc).__name__}: {exc}",
        )

    def to_dict(self) -> dict:
        if self.ok:
            envelope: dict[str, Any] = {"ok": True, "result": self.result}
        else:
            error: dict[str, Any] = {
                "type": self.error_type,
                "message": self.error_message,
            }
            if self.error_details is not None:
                error["details"] = self.error_details
            envelope = {"ok": False, "error": error}
        if self.request_id is not None:
            envelope["request_id"] = self.request_id
        return envelope

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str | bytes) -> "Response":
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "ok" not in payload:
            raise ProtocolError("response must be an object with 'ok'")
        return cls.from_dict(payload)

    @classmethod
    def from_dict(cls, payload: dict) -> "Response":
        """The response a :meth:`to_dict` envelope describes."""
        request_id = payload.get("request_id")
        if payload.get("ok"):
            return cls(ok=True, result=payload.get("result"), request_id=request_id)
        error = payload.get("error") or {}
        return cls(
            ok=False,
            error_type=error.get("type"),
            error_message=error.get("message"),
            error_details=error.get("details"),
            request_id=request_id,
        )
