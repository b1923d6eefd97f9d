"""HTTP client for the ONEX server, with overload-aware retries.

:class:`OnexClient` speaks the :mod:`repro.server.protocol` envelopes
over ``http.client`` (stdlib only, like the server), on one kept-alive
HTTP/1.1 connection per calling thread.  Before reusing an idle
connection it polls the socket: a readable idle socket means the server
closed it (its read timeout, a 4xx, ``stop()``), so the client
reconnects before writing anything — a request that was never written
cannot have executed.  A response marked ``Connection: close`` drops the
connection, and so does any transport error; the next call reconnects.
Its retry policy:

- **Read-only** operations (``protocol.READ_ONLY_OPERATIONS``) are
  always retryable: a shed request (503) provably never executed, and a
  replayed query is harmless.
- **Durable mutating** operations (``protocol.DURABLE_OPERATIONS``) are
  retryable since the server dedupes them by ``request_id``: every call
  mints one ID and re-sends it verbatim on each retry, so a connection
  that died after the server executed yields the *recorded* response on
  replay, never a double mutation.
- Everything else (``load_dataset``, ``save_base``, ...) fails fast on a
  transport error and leaves the decision to the caller.
- Retries back off exponentially with full jitter; a server-sent
  ``Retry-After`` hint is honoured as the floor of the next delay; the
  *total* time spent waiting between attempts is bounded by
  ``_RETRY_BUDGET_S`` so a retrying call cannot stall unboundedly.
- An exhausted budget raises :class:`~repro.exceptions.OverloadedError`
  (for sheds) or the underlying transport error, never a silent retry
  loop.

Server-reported application errors arrive as
:class:`~repro.exceptions.RemoteError` carrying the server's error type
and structured details (e.g. a remote ``DeadlineExceeded``'s progress
snapshot).

``metrics()`` reports the client's own call statistics (attempts,
retries, last request IDs — including a ``mutating`` sub-object for the
idempotent-retry path); the server's Prometheus exposition moved to
``scrape_metrics()``.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import socket
import threading
import time
from typing import Any

from repro.exceptions import (
    OverloadedError,
    ProtocolError,
    RemoteError,
    ValidationError,
)
from repro.obs.trace import new_request_id
from repro.server.protocol import (
    DURABLE_OPERATIONS,
    READ_ONLY_OPERATIONS,
    Request,
    Response,
)

__all__ = ["OnexClient"]

#: Full-jitter exponential backoff: attempt ``n`` waits up to
#: ``min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * 2**n)`` seconds, and a call's
#: waits together stop at ``_RETRY_BUDGET_S``.
_BACKOFF_BASE_S = 0.1
_BACKOFF_CAP_S = 2.0
_RETRY_BUDGET_S = 15.0

#: How a retry waits out its backoff (tests substitute it).
_sleep = time.sleep

#: What a failed exchange raises (refused, reset, timed out, cut short);
#: each drops the thread's connection.
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


class OnexClient:
    """Calls one ONEX server; safe retries for idempotent operations.

    *url* is ``http://host:port`` with an optional path prefix.
    *max_retries* bounds the re-sends after the first attempt; the
    delays between them are the module's backoff constants.
    """

    def __init__(
        self,
        url: str,
        *,
        timeout_s: float = 30.0,
        max_retries: int = 3,
    ) -> None:
        self.url = url.rstrip("/")
        scheme, _, rest = self.url.partition("://")
        if scheme != "http" or not rest:
            raise ValidationError(f"OnexClient needs an http:// URL, got {url!r}")
        self._netloc, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
        self._local = threading.local()
        self.timeout_s = float(timeout_s)
        self.max_retries = int(max_retries)
        self.calls = 0
        self.retries_performed = 0
        #: Operation and attempt count of the most recent ``call()``.
        self.last_op: str | None = None
        self.last_attempts = 0
        #: Correlation ID minted for the most recent ``call()``.
        self.last_request_id: str | None = None
        #: ``request_id`` echoed in the most recent response envelope.
        self.last_response_request_id: str | None = None
        self._mutating_stats = {
            "calls": 0,
            "retries": 0,
            "last_op": None,
            "last_attempts": 0,
            "last_request_id": None,
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def call(self, op: str, params: dict | None = None) -> Any:
        """Execute one operation; returns the result payload.

        Raises :class:`RemoteError` for server-reported failures,
        :class:`OverloadedError` when the server keeps shedding past the
        retry budget, and the transport error when the connection fails
        on a non-retryable operation.
        """
        # One ID per logical call, re-sent verbatim on every retry, so
        # the server can correlate — and for durable mutating ops
        # deduplicate — replays of the same request.
        request_id = new_request_id()
        request = Request(op, dict(params or {}), request_id=request_id)
        self.calls += 1
        self.last_op = op
        self.last_request_id = request_id
        mutating = op in DURABLE_OPERATIONS
        if mutating:
            self._mutating_stats["calls"] += 1
            self._mutating_stats["last_op"] = op
            self._mutating_stats["last_request_id"] = request_id
        body = request.to_json().encode()
        retryable = mutating or op in READ_ONLY_OPERATIONS
        budget_expires = time.monotonic() + _RETRY_BUDGET_S
        attempt = 0
        while True:
            self._record_attempts(attempt + 1, mutating)
            try:
                status, headers, payload = self._exchange("POST", "/api", body)
            except _TRANSPORT_ERRORS:
                if not self._may_retry(retryable, attempt, budget_expires):
                    raise
                self._backoff(attempt, None, budget_expires, mutating)
                attempt += 1
                continue
            if status == 503:
                retry_after = _parse_retry_after(headers)
                if not self._may_retry(retryable, attempt, budget_expires):
                    raise OverloadedError(
                        f"server overloaded after {attempt + 1} attempt(s)",
                        retry_after=retry_after,
                    )
                self._backoff(attempt, retry_after, budget_expires, mutating)
                attempt += 1
                continue
            response = Response.from_json(payload)
            self.last_response_request_id = response.request_id
            if response.ok:
                return response.result
            raise RemoteError(
                response.error_type or "UnknownError",
                response.error_message or "",
                response.error_details,
            )

    def health(self) -> dict:
        """The server's ``/health`` payload (never retried)."""
        return self._get("/health")

    def ready(self) -> bool:
        """Whether the server currently admits requests (``/ready``);
        its 503 while draining is a well-formed "not ready"."""
        return bool(self._get("/ready", ok=(200, 503)).get("ready"))

    def pool_status(self) -> dict | None:
        """The worker pool's per-slot state from ``/health``.

        ``None`` against a single-process server (no pool section).
        Keys: ``size``, ``live``, ``failovers``, and ``workers`` —
        one ``{slot, pid, state, restarts, crashes}`` per seat.
        """
        return self.health().get("pool")

    def metrics(self) -> dict:
        """This client's own call statistics.

        ``mutating`` sub-object tracks the idempotent-retry path:
        attempts and the last request id a durable mutating call minted
        (the key its retries dedupe under server-side).
        """
        return {
            "calls": self.calls,
            "retries_performed": self.retries_performed,
            "last_op": self.last_op,
            "last_attempts": self.last_attempts,
            "last_request_id": self.last_request_id,
            "last_response_request_id": self.last_response_request_id,
            "mutating": dict(self._mutating_stats),
        }

    def scrape_metrics(self) -> str:
        """The server's ``/metrics`` Prometheus exposition text (never
        retried); parse with :func:`repro.obs.metrics.parse_exposition`."""
        status, _, body = self._exchange("GET", "/metrics")
        _expect_status("/metrics", status, (200,))
        return body.decode()

    def close(self) -> None:
        """Close the calling thread's connection; a later call reconnects.

        Another thread's connection closes when that thread ends.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, not closed by the server while idle."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(self._netloc, timeout=self.timeout_s)
            self._local.conn = conn
        elif conn.sock is not None and _closed_while_idle(conn.sock):
            conn.close()  # ``request()`` opens a new one
        return conn

    def _exchange(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, http.client.HTTPMessage, bytes]:
        """One request/response on this thread's connection.

        Every HTTP status is returned (400 envelopes and 503 sheds are
        responses, not transport failures).  A transport error closes the connection before it propagates (its
        state is unknown); a ``Connection: close`` response has already
        closed it inside ``http.client``.  Either way the next exchange
        reconnects.
        """
        conn = self._connection()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            conn.request(method, self._prefix + path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.headers, resp.read()
        except _TRANSPORT_ERRORS:
            conn.close()
            raise

    def _get(self, path: str, ok: tuple[int, ...] = (200,)) -> dict:
        status, _, body = self._exchange("GET", path)
        _expect_status(path, status, ok)
        payload = json.loads(body)
        if not isinstance(payload, dict):
            raise ProtocolError(f"{path} returned a non-object payload")
        return payload

    def _record_attempts(self, attempts: int, mutating: bool) -> None:
        self.last_attempts = attempts
        if mutating:
            self._mutating_stats["last_attempts"] = attempts

    def _may_retry(
        self, retryable: bool, attempt: int, budget_expires: float
    ) -> bool:
        return (
            retryable
            and attempt < self.max_retries
            and time.monotonic() < budget_expires
        )

    def _backoff(
        self,
        attempt: int,
        retry_after: float | None,
        budget_expires: float,
        mutating: bool = False,
    ) -> None:
        """Sleep before re-sending: jittered exponential, floored at the
        server's ``Retry-After`` hint, capped to the remaining budget."""
        cap = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2**attempt))
        delay = random.uniform(0.0, cap)
        if retry_after is not None:
            delay = max(delay, retry_after)
        remaining = budget_expires - time.monotonic()
        delay = min(delay, max(0.0, remaining))
        self.retries_performed += 1
        if mutating:
            self._mutating_stats["retries"] += 1
        if delay > 0:
            _sleep(delay)


def _closed_while_idle(sock: socket.socket) -> bool:
    """Whether the server closed *sock* since its last response.

    The server sends nothing unasked, so an idle socket that polls
    readable holds an EOF (or a reset) — never the start of an answer.
    """
    readable, _, _ = select.select([sock], [], [], 0)
    return bool(readable)


def _expect_status(path: str, status: int, ok: tuple[int, ...]) -> None:
    if status not in ok:
        raise ProtocolError(f"{path} answered HTTP {status}")


def _parse_retry_after(headers: http.client.HTTPMessage) -> float | None:
    value = headers.get("Retry-After")
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None
