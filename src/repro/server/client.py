"""HTTP client for the ONEX server, with overload-aware retries.

:class:`OnexClient` speaks the :mod:`repro.server.protocol` envelopes
over plain urllib (stdlib only, like the server).  Its retry policy:

- **Read-only** operations (``protocol.READ_ONLY_OPERATIONS``) are
  always retryable: a shed request (503) provably never executed, and a
  replayed query is harmless.
- **Durable mutating** operations (``protocol.DURABLE_OPERATIONS``) are
  retryable since the server dedupes them by ``request_id``: every call
  mints one ID and re-sends it verbatim on each retry, so a connection
  that died after the server executed yields the *recorded* response on
  replay, never a double mutation.
- Everything else (``load_dataset``, ``save_base``, ...) fails fast and
  leaves the decision to the caller.
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

import json
import random
import time
import urllib.error
import urllib.request
from collections.abc import Callable
from typing import Any

from repro.exceptions import OverloadedError, ProtocolError, RemoteError
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


class OnexClient:
    """Calls one ONEX server; safe retries for idempotent operations.

    *max_retries* bounds the re-sends after the first attempt; the
    delays between them are the module's backoff constants.  *sleep* and
    *rng* exist for deterministic tests.
    """

    def __init__(
        self,
        url: str,
        *,
        timeout_s: float = 30.0,
        max_retries: int = 3,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout_s = float(timeout_s)
        self.max_retries = int(max_retries)
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
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
                status, headers, payload = self._post(body)
            except (urllib.error.URLError, ConnectionError, TimeoutError):
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
        """Whether the server currently admits requests (``/ready``)."""
        try:
            return bool(self._get("/ready").get("ready"))
        except urllib.error.HTTPError as exc:
            if exc.code == 503:  # draining: a well-formed "not ready"
                return False
            raise

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
        with urllib.request.urlopen(
            f"{self.url}/metrics", timeout=self.timeout_s
        ) as resp:
            return resp.read().decode()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _post(self, body: bytes) -> tuple[int, dict, bytes]:
        req = urllib.request.Request(
            f"{self.url}/api",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                return resp.status, dict(resp.headers), resp.read()
        except urllib.error.HTTPError as exc:
            # Protocol-level statuses (400 envelopes, 503 sheds) are
            # responses, not transport failures.
            return exc.code, dict(exc.headers or {}), exc.read()

    def _get(self, path: str) -> dict:
        with urllib.request.urlopen(
            f"{self.url}{path}", timeout=self.timeout_s
        ) as resp:
            payload = json.loads(resp.read())
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
        delay = self._rng.uniform(0.0, cap)
        if retry_after is not None:
            delay = max(delay, retry_after)
        remaining = budget_expires - time.monotonic()
        delay = min(delay, max(0.0, remaining))
        self.retries_performed += 1
        if mutating:
            self._mutating_stats["retries"] += 1
        if delay > 0:
            self._sleep(delay)


def _parse_retry_after(headers: dict) -> float | None:
    for name, value in headers.items():
        if name.lower() == "retry-after":
            try:
                return float(value)
            except (TypeError, ValueError):
                return None
    return None
