"""Stdlib-only HTTP front end for the ONEX service.

Endpoints:

- ``POST /api`` — a protocol request as the JSON body; returns the
  response envelope.  Engine errors map to 200-with-``ok: false`` (they
  are application results); malformed envelopes map to 400; requests the
  admission gate sheds map to 503 with a ``Retry-After`` header and an
  ``OverloadedError`` envelope.
- ``GET /health`` — liveness plus loaded dataset names (with build-base
  fingerprints), server version and uptime, in-flight and shed counts,
  and per-operation p50/p99 latency from a ring buffer.
- ``GET /ready`` — 200 while the gate admits requests, 503 once the
  server is draining for shutdown (load balancers stop routing here
  before ``stop()`` aborts anything).
- ``GET /metrics`` — the process-wide observability registry
  (:mod:`repro.obs.metrics`) in Prometheus text exposition format:
  engine counters (queries, cascade work, builds, streaming) plus the
  server-side request counter/latency histogram and gate gauges.

Every ``/api`` response carries a correlation ID: the client's
``request_id`` when the envelope had one, else one minted here before
the service runs.  It is echoed in the JSON envelope, the
``X-Request-Id`` header, and the structured log lines the request
produces.

Probe endpoints (``/health``, ``/ready``, ``/metrics``) bypass the
admission gate on purpose: an overloaded or draining server must still
answer its scrapers.

Concurrency model: one reader/writer lock per loaded dataset, plus a
registry-level lock guarding the dataset table itself.  Read-only
operations (``protocol.READ_ONLY_OPERATIONS``) take the shared side, so
any number of concurrent queries — against one dataset or several —
proceed in parallel; mutating operations (loads, series appends, monitor
registration, saves) take the exclusive side of their dataset only, and
``load_dataset``/``unload_dataset`` exclusively lock the registry because
they change the table every other request routes through.

Overload model: ahead of the locks sits an :class:`AdmissionGate` — at
most *max_in_flight* requests execute while up to *max_queue* wait; any
further arrival is shed immediately with a structured 503 instead of
stacking an unbounded number of handler threads onto the engine.  A shed
request did not execute at all, so retrying it (the client helper in
:mod:`repro.server.client` does, for read-only operations) is always
safe.

Throughput-sensitive clients should prefer ``query_batch`` over a stream
of single-query requests: one request pays the HTTP round trip, JSON
envelope, and lock acquisition once for the whole batch, and the engine
runs the batch's queries over the shared prepared state (see
``QueryProcessor.batch_matches``) — it holds the same shared read lock,
so it never blocks other readers.

The server runs on a daemon thread (``start()``/``stop()``), which is how
the examples and integration tests drive a real client/server round trip
in-process.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

import repro
from repro.exceptions import (
    NotReadyError,
    OverloadedError,
    ProtocolError,
    ShutdownTimeoutError,
    StartupError,
    ValidationError,
    WorkerCrashedError,
)
from repro.obs.logs import get_logger, log_event
from repro.obs.metrics import REGISTRY
from repro.obs.trace import new_request_id
from repro.server.protocol import READ_ONLY_OPERATIONS, Request, Response
from repro.server.service import OnexService
from repro.testing import faults

__all__ = [
    "AdmissionGate",
    "DatasetLockManager",
    "OnexHttpServer",
    "ReadWriteLock",
]

_LOG = get_logger("server")

_REQUESTS_TOTAL = REGISTRY.counter(
    "onex_server_requests_total",
    "HTTP API requests by operation and response status code",
)
_REQUEST_MS = REGISTRY.histogram(
    "onex_server_request_ms",
    "HTTP API request wall time per operation (milliseconds)",
)
_SHED_TOTAL = REGISTRY.counter(
    "onex_server_shed_total", "Requests rejected by the admission gate"
)
_IN_FLIGHT = REGISTRY.gauge(
    "onex_server_in_flight", "Requests currently executing or queued"
)
_UPTIME = REGISTRY.gauge(
    "onex_server_uptime_seconds", "Seconds since the HTTP server was created"
)
_INFO = REGISTRY.gauge(
    "onex_server_info", "Constant 1; the version label carries the build"
)


class ReadWriteLock:
    """A fair-enough reader/writer lock built on one condition variable.

    Any number of readers share the lock; a writer is exclusive.  Waiting
    writers block new readers (writer preference), so a stream of
    overlapping queries cannot starve an append.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    @contextmanager
    def read(self) -> Iterator[None]:
        """Context-managed shared acquisition."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Context-managed exclusive acquisition."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class DatasetLockManager:
    """Per-dataset reader/writer locks behind one registry lock.

    ``guard(request)`` yields with the right locks held for one protocol
    request: registry-exclusive for load/unload, else registry-shared
    plus the target dataset's lock in the mode the operation needs.
    *known* (a callable returning the loaded dataset names) bounds the
    lock table: a request naming an unknown dataset gets a throwaway lock
    — the engine raises its own error under it — so garbage names from
    unauthenticated input cannot grow the table; unload drops entries.
    """

    def __init__(self, known: Callable[[], Iterable[str]] | None = None) -> None:
        self._mutex = threading.Lock()
        self._registry = ReadWriteLock()
        self._locks: dict[str, ReadWriteLock] = {}
        self._known = known

    def _lock_for(self, dataset: str) -> ReadWriteLock:
        with self._mutex:
            lock = self._locks.get(dataset)
            if lock is None:
                lock = ReadWriteLock()
                # Callers hold the registry read-side, so the loaded set
                # cannot change under this membership check.
                if self._known is None or dataset in self._known():
                    self._locks[dataset] = lock
            return lock

    def drop(self, dataset: str) -> None:
        with self._mutex:
            self._locks.pop(dataset, None)

    @contextmanager
    def registry_read(self) -> Iterator[None]:
        """Shared hold on the dataset table (e.g. the health endpoint)."""
        with self._registry.read():
            yield

    @contextmanager
    def guard(self, request: Request) -> Iterator[None]:
        """Hold the locks one request needs for its whole execution."""
        if request.op in ("load_dataset", "unload_dataset"):
            with self._registry.write():
                yield
                # Drop while still holding the registry exclusively: doing
                # it after release would race a reload handing out a second
                # lock object for the same name.
                if request.op == "unload_dataset":
                    self.drop(str(request.params.get("dataset")))
            return
        dataset = request.params.get("dataset")
        with self._registry.read():
            if dataset is None:
                yield
                return
            lock = self._lock_for(str(dataset))
            if request.op in READ_ONLY_OPERATIONS:
                with lock.read():
                    yield
            else:
                with lock.write():
                    yield


class AdmissionGate:
    """Bounded admission for request handlers: execute, queue, or shed.

    At most *max_in_flight* requests execute concurrently; up to
    *max_queue* more wait their turn; anything beyond that is shed
    (``try_acquire`` returns False) so overload produces fast structured
    503s instead of an unbounded pile of handler threads all contending
    for the engine.  ``close()`` flips the gate into draining mode: new
    arrivals and parked waiters are shed immediately, and ``wait_idle``
    lets a shutdown path watch the in-flight count reach zero.
    """

    def __init__(self, max_in_flight: int = 8, max_queue: int = 16) -> None:
        if not isinstance(max_in_flight, int) or max_in_flight < 1:
            raise ValidationError(
                f"max_in_flight must be a positive int, got {max_in_flight!r}"
            )
        if not isinstance(max_queue, int) or max_queue < 0:
            raise ValidationError(
                f"max_queue must be a non-negative int, got {max_queue!r}"
            )
        self.max_in_flight = max_in_flight
        self.max_queue = max_queue
        self._cond = threading.Condition()
        self._in_flight = 0
        self._waiting = 0
        self._open = True
        self._shed = 0

    @property
    def in_flight(self) -> int:
        with self._cond:
            return self._in_flight

    @property
    def shed(self) -> int:
        """Requests rejected (queue full or gate draining) so far."""
        with self._cond:
            return self._shed

    @property
    def is_open(self) -> bool:
        with self._cond:
            return self._open

    def try_acquire(self) -> bool:
        """Take an execution slot, waiting in the bounded queue if needed.

        False means the request was shed and must not execute.
        """
        with self._cond:
            if not self._open:
                self._shed += 1
                return False
            if self._in_flight < self.max_in_flight:
                self._in_flight += 1
                return True
            if self._waiting >= self.max_queue:
                self._shed += 1
                return False
            self._waiting += 1
            try:
                while self._open and self._in_flight >= self.max_in_flight:
                    self._cond.wait()
            finally:
                self._waiting -= 1
            if not self._open:
                self._shed += 1
                return False
            self._in_flight += 1
            return True

    def release(self) -> None:
        with self._cond:
            self._in_flight -= 1
            self._cond.notify_all()

    def resize(self, max_in_flight: int) -> None:
        """Change the concurrency cap in place (degraded-capacity mode).

        The supervisor calls this as pool workers die and restart, so
        the in-flight budget tracks live serving capacity.  Shrinking
        never aborts requests already executing — the gate simply admits
        nothing new until the count drains below the new cap; growing
        wakes parked waiters immediately.
        """
        if not isinstance(max_in_flight, int) or max_in_flight < 1:
            raise ValidationError(
                f"max_in_flight must be a positive int, got {max_in_flight!r}"
            )
        with self._cond:
            self.max_in_flight = max_in_flight
            self._cond.notify_all()

    def close(self) -> None:
        """Stop admitting: shed new arrivals and wake parked waiters."""
        with self._cond:
            self._open = False
            self._cond.notify_all()

    def wait_idle(self, timeout: float) -> int:
        """Block until no request is in flight; returns the leftover count
        (0 on a clean drain) once *timeout* seconds have elapsed."""
        expires_at = time.monotonic() + timeout
        with self._cond:
            while self._in_flight:
                remaining = expires_at - time.monotonic()
                if remaining <= 0:
                    return self._in_flight
                self._cond.wait(remaining)
            return 0


def _quantile(ordered: list[float], q: float) -> float | None:
    """Nearest-rank quantile of an already-sorted non-empty list."""
    if not ordered:
        return None
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


class _ServerMetrics:
    """Per-operation latency rings plus a total-handled counter.

    Rings are bounded (*ring_size* most recent samples per operation), so
    the health endpoint's p50/p99 reflect recent behaviour and memory
    stays O(operations), not O(requests).  ``record`` also publishes each
    sample to the process-wide registry (``onex_server_requests_total`` /
    ``onex_server_request_ms``), making the ring a bounded view over the
    same stream ``/metrics`` exposes cumulatively.
    """

    def __init__(self, ring_size: int = 256) -> None:
        self._mutex = threading.Lock()
        self._ring_size = ring_size
        self._rings: dict[str, deque] = {}
        self.handled = 0

    def record(self, op: str, elapsed_ms: float, code: int = 200) -> None:
        _REQUESTS_TOTAL.inc(op=op, code=str(code))
        _REQUEST_MS.observe(float(elapsed_ms), op=op)
        with self._mutex:
            self.handled += 1
            ring = self._rings.get(op)
            if ring is None:
                ring = self._rings[op] = deque(maxlen=self._ring_size)
            ring.append(float(elapsed_ms))

    def latency_snapshot(self) -> dict:
        with self._mutex:
            out = {}
            for op in sorted(self._rings):
                ordered = sorted(self._rings[op])
                out[op] = {
                    "count": len(ordered),
                    "p50_ms": _quantile(ordered, 0.50),
                    "p99_ms": _quantile(ordered, 0.99),
                }
            return out


def _make_handler(
    service: OnexService,
    gate: AdmissionGate,
    metrics: _ServerMetrics,
    uptime_s: Callable[[], float] | None = None,
    ready_fn: Callable[[], bool] | None = None,
    read_timeout_s: float | None = 30.0,
) -> type[BaseHTTPRequestHandler]:
    locks = DatasetLockManager(known=lambda: service.engine.dataset_names)
    if uptime_s is None:
        started = time.monotonic()
        uptime_s = lambda: time.monotonic() - started  # noqa: E731
    if ready_fn is None:
        ready_fn = lambda: True  # noqa: E731
    pool_status = getattr(service, "pool_status", None)

    class Handler(BaseHTTPRequestHandler):
        """One request thread: admission, locking, envelopes."""

        # Per-connection socket timeout (StreamRequestHandler.setup calls
        # settimeout with this): a client that stalls mid-body cannot
        # pin a handler thread forever — the read raises and maps to a
        # structured 408 below.  Idle keep-alive connections time out in
        # the stdlib's request-line read and are simply closed.
        timeout = read_timeout_s

        def log_message(self, fmt: str, *args: Any) -> None:
            pass  # request logging is the structured logger's job

        def _pool_summary(self) -> dict | None:
            """Per-slot state, and each slot's epochs beside the published."""
            return pool_status() if pool_status is not None else None

        def _send(self, status: int, payload: dict, headers: dict | None = None) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _send_text(self, status: int, text: str, content_type: str) -> None:
            body = text.encode()
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            # Probes bypass the admission gate on purpose: an overloaded
            # or draining server must still answer health checks and
            # scrapers.
            if self.path == "/health":
                with locks.registry_read():
                    datasets = service.engine.dataset_names
                    fingerprints = service.engine.fingerprints()
                    durability = service.durability_status()
                payload = {
                    "status": "ok",
                    "version": repro.__version__,
                    "uptime_s": round(uptime_s(), 3),
                    "datasets": datasets,
                    "fingerprints": fingerprints,
                    "in_flight": gate.in_flight,
                    "shed": gate.shed,
                    "handled": metrics.handled,
                    "latency_ms": metrics.latency_snapshot(),
                }
                if durability is not None:
                    # Operators verify recovery here: per-dataset WAL
                    # and checkpoint positions plus the last recovery
                    # report (datasets, replayed records, torn bytes).
                    payload["durability"] = durability
                payload["ready"] = ready_fn() and gate.is_open
                pool = self._pool_summary()
                if pool is not None:
                    payload["pool"] = pool
                self._send(200, payload)
            elif self.path == "/metrics":
                # Point-in-time gauges are set at scrape; counters and
                # histograms accumulate at their sources.
                _IN_FLIGHT.set(gate.in_flight)
                _UPTIME.set(uptime_s())
                _INFO.set(1.0, version=repro.__version__)
                self._send_text(
                    200,
                    REGISTRY.render(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif self.path == "/ready":
                pool = self._pool_summary()
                pool_ok = pool is None or pool["live"] > 0
                ready = ready_fn() and gate.is_open and pool_ok
                payload: dict = {"ready": ready, "in_flight": gate.in_flight}
                if pool is not None:
                    payload["pool"] = pool
                self._send(200 if ready else 503, payload)
            else:
                self._send(404, {"ok": False, "error": {"type": "NotFound", "message": self.path}})

        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            if self.path != "/api":
                self._send(404, {"ok": False, "error": {"type": "NotFound", "message": self.path}})
                return
            # A malformed Content-Length used to raise out of the handler,
            # killing the connection with no response; so did any decoding
            # failure Request.from_json does not translate itself.  Every
            # malformed request now maps to a 400 envelope and the
            # connection (and server) keeps serving.
            raw_length = self.headers.get("Content-Length", 0)
            try:
                length = int(raw_length)
                if length < 0:
                    raise ValueError("negative length")
            except (TypeError, ValueError):
                self._send(
                    400,
                    Response.failure(
                        ProtocolError(f"invalid Content-Length: {raw_length!r}")
                    ).to_dict(),
                )
                return
            # The body read honours the per-connection socket timeout: a
            # slow client that never delivers its advertised bytes gets a
            # structured 408 instead of pinning this handler thread (and
            # an admission-gate slot's worth of goodwill) indefinitely.
            try:
                body = self.rfile.read(length)
            except (TimeoutError, OSError) as exc:
                self.close_connection = True
                self._send(
                    408,
                    Response.failure(
                        ProtocolError(
                            "timed out reading the request body "
                            f"({type(exc).__name__})"
                        )
                    ).to_dict(),
                )
                return
            if len(body) != length:
                self.close_connection = True
                self._send(
                    400,
                    Response.failure(
                        ProtocolError(
                            f"request body truncated: got {len(body)} of "
                            f"{length} bytes"
                        )
                    ).to_dict(),
                )
                return
            try:
                request = Request.from_json(body)
            except ProtocolError as exc:
                self._send(400, Response.failure(exc).to_dict())
                return
            except Exception as exc:  # undecodable or pathological bodies
                self._send(
                    400,
                    Response.failure(
                        ProtocolError(
                            f"malformed request body: {type(exc).__name__}: {exc}"
                        )
                    ).to_dict(),
                )
                return
            if request.request_id is None:
                # Mint the correlation ID before anything can fail, so
                # every outcome below — shed, fault, success — carries
                # one.  (The service also mints defensively when driven
                # without this front end.)
                request = replace(request, request_id=new_request_id())
            rid_header = {"X-Request-Id": request.request_id}
            if not ready_fn():
                # Recovery (or another startup phase) is still running:
                # shed cleanly rather than serve from a partially
                # replayed engine.  /ready mirrors this state for load
                # balancers.
                retry_after = 1
                not_ready = NotReadyError(
                    "server is not ready (recovery in progress); "
                    f"retry after {retry_after}s",
                    retry_after=retry_after,
                )
                _REQUESTS_TOTAL.inc(op=request.op, code="503")
                self._send(
                    503,
                    Response.failure(not_ready)
                    .with_request_id(request.request_id)
                    .to_dict(),
                    headers={"Retry-After": str(retry_after), **rid_header},
                )
                return
            if not gate.try_acquire():
                retry_after = 1
                shed = OverloadedError(
                    f"server overloaded ({gate.max_in_flight} in flight, "
                    f"{gate.max_queue} queued); retry after {retry_after}s",
                    retry_after=retry_after,
                )
                _SHED_TOTAL.inc()
                _REQUESTS_TOTAL.inc(op=request.op, code="503")
                log_event(
                    _LOG,
                    "warning",
                    "server.shed",
                    op=request.op,
                    request_id=request.request_id,
                    in_flight=gate.max_in_flight,
                    queue=gate.max_queue,
                )
                self._send(
                    503,
                    Response.failure(shed).with_request_id(request.request_id).to_dict(),
                    headers={"Retry-After": str(retry_after), **rid_header},
                )
                return
            extra_headers = dict(rid_header)
            try:
                faults.fire("server.handle", op=request.op)
                started = time.perf_counter()
                with locks.guard(request):
                    response = service.handle(request)
                metrics.record(
                    request.op, (time.perf_counter() - started) * 1000.0
                )
                status, payload = 200, response.to_dict()
            except (OverloadedError, WorkerCrashedError) as exc:
                # Raised by the supervisor's pool dispatch: no live
                # workers / all busy, or a worker died holding a
                # non-read-only request.  Both are retryable — the
                # client's stable request_id makes a mutating retry
                # idempotent — so surface 503 + Retry-After rather than
                # hanging or returning a 200 error envelope.
                retry_after = getattr(exc, "retry_after", None) or 1
                _REQUESTS_TOTAL.inc(op=request.op, code="503")
                log_event(
                    _LOG,
                    "warning",
                    "server.pool_unavailable",
                    op=request.op,
                    request_id=request.request_id,
                    error=type(exc).__name__,
                )
                extra_headers["Retry-After"] = str(max(1, round(retry_after)))
                status, payload = 503, Response.failure(exc).with_request_id(
                    request.request_id
                ).to_dict()
            except faults.FaultInjectedError as exc:
                _REQUESTS_TOTAL.inc(op=request.op, code="500")
                status, payload = 500, Response.internal_error(exc).with_request_id(
                    request.request_id
                ).to_dict()
            finally:
                gate.release()
            self._send(status, payload, headers=extra_headers)

    return Handler


class _ThreadingServer(ThreadingHTTPServer):
    """The stdlib server with a listen backlog that outlasts a burst.

    With the default of 5 the kernel drops the SYNs of a burst past the
    backlog and those clients stall for the 1 s TCP retry — by then a
    slot is free, so they are admitted late where the
    :class:`AdmissionGate` was meant to shed them at once with a 503.
    """

    request_queue_size = 128


class OnexHttpServer:
    """Threaded HTTP wrapper around one :class:`OnexService`.

    *max_in_flight*/*max_queue* configure the admission gate (see
    :class:`AdmissionGate`); *drain_timeout* bounds how long ``stop()``
    waits — first for in-flight requests to finish, then for the serve
    thread to exit.
    """

    def __init__(
        self,
        service: OnexService | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = 8,
        max_queue: int = 16,
        drain_timeout: float = 5.0,
        read_timeout_s: float = 30.0,
        ready: bool = True,
    ) -> None:
        self.service = service or OnexService()
        self.gate = AdmissionGate(max_in_flight, max_queue)
        self.metrics = _ServerMetrics()
        self._drain_timeout = float(drain_timeout)
        self._ready = threading.Event()
        if ready:
            self._ready.set()
        self.started_monotonic = time.monotonic()
        try:
            self._httpd = _ThreadingServer(
                (host, port),
                _make_handler(
                    self.service,
                    self.gate,
                    self.metrics,
                    uptime_s=lambda: time.monotonic() - self.started_monotonic,
                    ready_fn=self._ready.is_set,
                    read_timeout_s=float(read_timeout_s),
                ),
            )
        except OSError as exc:
            raise StartupError(
                f"cannot bind {host}:{port}: {exc}"
                + (
                    " (is another server already listening there?)"
                    if getattr(exc, "errno", None) in (13, 48, 98)
                    else ""
                )
            ) from exc
        self._thread: threading.Thread | None = None
        # A supervisor-backed service scales the admission cap with live
        # worker capacity; the plain single-process service has no hook.
        attach_gate = getattr(self.service, "attach_gate", None)
        if callable(attach_gate):
            attach_gate(self.gate)

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) actually bound (port 0 picks a free one)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def is_ready(self) -> bool:
        return self._ready.is_set()

    def set_ready(self, ready: bool = True) -> None:
        """Flip the readiness gate (the CLI keeps it down during recovery).

        While down, ``/api`` sheds with a structured 503 +
        ``Retry-After`` (``NotReadyError`` envelope) and ``/ready``
        reports false — a client can never observe a partially replayed
        engine.  ``/health`` and ``/metrics`` stay up throughout.
        """
        if ready:
            self._ready.set()
        else:
            self._ready.clear()

    def start(self) -> "OnexHttpServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        log_event(_LOG, "info", "server.started", url=self.url)
        return self

    def stop(self) -> dict | None:
        """Drain and shut down; returns ``{"drained": n, "aborted": m}``.

        The gate closes first, so new arrivals get clean 503s while
        in-flight requests run to completion (up to *drain_timeout*).
        Requests still running after the budget are abandoned on their
        daemon threads and counted as aborted.  A serve thread that then
        fails to exit raises :class:`ShutdownTimeoutError` — previously
        this leak was silent.
        """
        if self._thread is None:
            return None
        self.gate.close()
        in_flight = self.gate.in_flight
        leftover = self.gate.wait_idle(self._drain_timeout) if in_flight else 0
        self._httpd.shutdown()
        self._thread.join(timeout=self._drain_timeout)
        leaked = self._thread.is_alive()
        self._httpd.server_close()
        self._thread = None
        if leaked:
            raise ShutdownTimeoutError(
                f"HTTP serve thread failed to exit within {self._drain_timeout:g}s "
                f"of shutdown ({leftover} requests still in flight)"
            )
        log_event(
            _LOG,
            "info",
            "server.stopped",
            drained=in_flight - leftover,
            aborted=leftover,
        )
        return {"drained": in_flight - leftover, "aborted": leftover}

    def __enter__(self) -> "OnexHttpServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
