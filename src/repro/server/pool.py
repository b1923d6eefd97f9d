"""Supervised pre-fork worker pool over mmap-shared base snapshots.

:class:`WorkerPool` forks N worker processes, each running a full
:class:`~repro.server.service.OnexService` whose datasets are attached
read-only from published mmap snapshots
(:mod:`repro.core.mmap_layout`).  The supervisor process keeps the
listening socket and dispatches one protocol request at a time per
worker over a private socketpair (length-prefixed JSON frames); the
kernel's page cache makes every worker's member/centroid/summary stacks
views over the same physical pages, so adding a worker adds parallelism
without adding copies of the base.

Snapshots reach workers *with the requests*: every dispatched frame
carries the published ``[dataset, path, epoch]`` of its dataset (and the
names unloaded since the worker's last frame), the worker maps that
epoch first if it holds another, and its reply reports the epoch it
answered from and what the attach cost.  There is no control channel
and no broadcast, so no worker can miss a publication.

Fault containment and failover:

- **Crash detection** — the dispatching thread sees EOF on the worker's
  socket the moment the process dies (including ``kill -9``
  mid-request); a monitor thread additionally reaps exits and watches
  per-worker heartbeat pipes.
- **Hang detection** — each worker's heartbeat thread stops beating
  once a single request has been executing longer than
  ``_STALL_LIMIT_S``; a stale heartbeat makes the monitor ``SIGKILL``
  the worker, which surfaces as an EOF to the dispatcher and flows
  through the same failover path as a crash.
- **Failover** — a read-only operation
  (:data:`~repro.server.protocol.READ_ONLY_OPERATIONS`) is
  re-dispatched transparently to a surviving worker; anything else
  raises :class:`~repro.exceptions.WorkerCrashedError` (HTTP 503 +
  ``Retry-After``), which the client's stable ``request_id`` makes safe
  to retry — the server's idempotency window absorbs the replay.
- **Restart policy** — per-slot exponential backoff
  (``_BACKOFF_BASE_S * 2^(failures-1)``, capped at ``_BACKOFF_CAP_S``),
  with a consecutive-failure counter that resets after
  ``_BACKOFF_RESET_S`` of healthy uptime.  A slot crashing
  ``_FLAP_THRESHOLD`` times within ``_FLAP_WINDOW_S`` trips its circuit
  breaker: the slot goes ``broken`` and is only re-probed after
  ``_FLAP_COOLDOWN_S``.
- **Degraded capacity** — every live-count change invokes
  ``on_capacity_change(live, size)`` (the HTTP server resizes its
  admission gate through it); with zero live workers ``dispatch``
  raises :class:`~repro.exceptions.OverloadedError` immediately with a
  ``Retry-After`` hint derived from the nearest scheduled restart, so
  clients shed cleanly instead of hanging.

Chaos hooks: the worker request loop fires the ``worker.kill`` and
``worker.hang`` failpoints (:mod:`repro.testing.faults`) before
executing each dispatched request; both are inherited across the fork,
so a test arming them in the supervisor process takes down real worker
processes deterministically.

The timings of this fault model are the module constants below, not
constructor options: no caller tunes them, and tests substitute them
with ``monkeypatch.setattr`` before the pool forks, so workers inherit
the substituted values.
"""

from __future__ import annotations

import json
import os
import select
import socket
import struct
import threading
import time
from collections import deque
from functools import partial
from typing import Any, Callable

from multiprocessing import get_context

from repro.exceptions import OverloadedError, PersistenceError, WorkerCrashedError
from repro.obs.logs import get_logger, log_event
from repro.obs.metrics import REGISTRY
from repro.server.protocol import READ_ONLY_OPERATIONS, Request, Response
from repro.testing import faults

__all__ = ["WorkerPool"]

_LOG = get_logger("pool")

_POOL_SIZE = REGISTRY.gauge(
    "onex_pool_workers", "Configured worker-pool size"
)
_POOL_LIVE = REGISTRY.gauge(
    "onex_pool_live_workers", "Workers currently serving dispatches"
)
_WORKER_UP = REGISTRY.gauge(
    "onex_pool_worker_up", "Per-slot liveness (1 = serving)"
)
_RESTARTS_TOTAL = REGISTRY.counter(
    "onex_pool_worker_restarts_total", "Worker processes (re)started, per slot"
)
_CRASHES_TOTAL = REGISTRY.counter(
    "onex_pool_worker_crashes_total",
    "Worker deaths by slot and kind (exit | hang | startup)",
)
_DISPATCH_TOTAL = REGISTRY.counter(
    "onex_pool_dispatch_total",
    "Dispatch outcomes (ok | failover | crashed | no_capacity | attach_failed)",
)

_ATTACH_MS = REGISTRY.histogram(
    "onex_pool_snapshot_attach_ms",
    "Worker-side attach of a newly published epoch (the other half of "
    "onex_pool_snapshot_publish_ms)",
)
_WORKER_EPOCH = REGISTRY.gauge(
    "onex_pool_worker_epoch",
    "Snapshot epoch the slot answered its last dispatch from",
)

_FRAME_HEADER = struct.Struct(">I")
#: Upper bound on one frame's payload — a defence against a corrupted
#: length prefix mapping to a multi-GB allocation.
_MAX_FRAME = 256 * 1024 * 1024

#: Seconds between a worker's heartbeats.
_HEARTBEAT_INTERVAL_S = 0.2
#: A live worker whose heartbeat is this stale is killed as hung (six
#: heartbeat intervals).
_HEARTBEAT_TIMEOUT_S = 1.2
#: A worker stops beating once one request has run this long.
_STALL_LIMIT_S = 30.0
#: Restart delay after the first consecutive failure; it doubles per
#: further failure up to the cap, and the count resets after
#: ``_BACKOFF_RESET_S`` of healthy uptime.
_BACKOFF_BASE_S = 0.1
_BACKOFF_CAP_S = 5.0
_BACKOFF_RESET_S = 5.0
#: ``_FLAP_THRESHOLD`` crashes of one slot within ``_FLAP_WINDOW_S``
#: leave it ``broken`` for ``_FLAP_COOLDOWN_S``.
_FLAP_THRESHOLD = 5
_FLAP_WINDOW_S = 30.0
_FLAP_COOLDOWN_S = 30.0
#: A spawned worker that has not reported ready by now counts as a
#: startup crash.
_START_TIMEOUT_S = 60.0
#: How long a dispatch waits for a free live worker before shedding.
_DISPATCH_WAIT_S = 30.0


def _send_frame(sock: socket.socket, payload: dict) -> None:
    body = json.dumps(payload).encode()
    sock.sendall(_FRAME_HEADER.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks = []
    while n:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> dict | None:
    """One length-prefixed JSON frame, or None on a clean EOF."""
    header = _recv_exact(sock, _FRAME_HEADER.size)
    if header is None:
        return None
    (length,) = _FRAME_HEADER.unpack(header)
    if length > _MAX_FRAME:
        raise ConnectionError(f"oversized frame ({length} bytes)")
    body = _recv_exact(sock, length)
    if body is None:
        return None
    loaded = json.loads(body)
    if not isinstance(loaded, dict):
        raise ConnectionError("frame payload must be a JSON object")
    return loaded


# ----------------------------------------------------------------------
# Worker process side
# ----------------------------------------------------------------------


class _WorkerClock:
    """Shared request-progress state between loop and heartbeat thread."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.request_started: float | None = None

    def begin(self) -> None:
        with self.lock:
            self.request_started = time.monotonic()

    def end(self) -> None:
        with self.lock:
            self.request_started = None

    def stalled_for(self) -> float:
        with self.lock:
            if self.request_started is None:
                return 0.0
            return time.monotonic() - self.request_started


def _worker_attach(service: Any, name: str, path: str) -> None:
    """Map *name*'s snapshot at *path* read-only, replacing any older epoch."""
    from repro.core.mmap_layout import load_base_snapshot

    base, meta = load_base_snapshot(path, mmap_mode="r")
    engine = service.engine
    if name in engine.dataset_names:
        engine.unload_dataset(name)
    engine.restore_dataset(
        base.raw_dataset, base, fingerprint=meta.get("structure_fingerprint")
    )


def _worker_main(
    index: int,
    conn: socket.socket,
    heartbeat_fd: int,
    service_config: dict,
    snapshot_table: dict[str, tuple[str, int]],
    supervisor_ends: list[Callable[[], None]],
) -> None:
    """Entry point of one forked worker (never returns normally)."""
    from repro.core.config import QueryConfig
    from repro.server.service import OnexService

    # The fork copied the supervisor's ends of every slot's channel (this
    # one's included).  Drop them, or the supervisor's death would never
    # read as EOF here and an unsupervised worker would live on.
    for close_end in supervisor_ends:
        try:
            close_end()
        except OSError:
            pass  # closed by the supervisor between snapshot and fork

    clock = _WorkerClock()

    def beat() -> None:
        while True:
            if clock.stalled_for() < _STALL_LIMIT_S:
                try:
                    os.write(heartbeat_fd, b"\x01")
                except BlockingIOError:
                    pass  # supervisor will drain; the pipe holds plenty
                except OSError:
                    os._exit(0)  # supervisor is gone
            time.sleep(_HEARTBEAT_INTERVAL_S)

    try:
        service = OnexService(
            QueryConfig(**(service_config.get("query_config") or {})),
            default_timeout_ms=service_config.get("default_timeout_ms"),
        )
        #: dataset -> snapshot path this worker currently maps.
        attached: dict[str, str] = {}
        for name, (path, _epoch) in sorted(snapshot_table.items()):
            _worker_attach(service, name, path)
            attached[name] = path
        threading.Thread(target=beat, daemon=True).start()
        _send_frame(conn, {"ctl": "ready", "pid": os.getpid()})
        while True:
            frame = _recv_frame(conn)
            if frame is None:  # supervisor closed the pair: shut down
                os._exit(0)
            for name in frame.get("drop", ()):  # unloaded since our last frame
                attached.pop(name, None)
                if name in service.engine.dataset_names:
                    service.engine.unload_dataset(name)
            request = frame.get("req")
            if not isinstance(request, dict):
                _send_frame(conn, {"ok": False, "error": "bad frame"})
                continue
            op = request.get("op")
            served: dict = {}
            clock.begin()
            try:
                # The frame names the epoch published for the request's
                # dataset: map it first if this worker holds another, so
                # it never answers from an older epoch than it was asked.
                if "epoch" in frame:
                    name, path, served["epoch"] = frame["epoch"]
                    if attached.get(name) != path:
                        started = time.monotonic()
                        try:
                            _worker_attach(service, name, path)
                        except Exception as exc:
                            attached.pop(name, None)
                            _send_frame(
                                conn, {"ctl": "attach_failed", "error": str(exc)}
                            )
                            continue
                        attached[name] = path
                        served["attach_ms"] = (time.monotonic() - started) * 1e3
                faults.fire("worker.kill", op=op)
                faults.fire("worker.hang", op=op)
                response = service.handle(request)
            finally:
                clock.end()
            _send_frame(conn, {**response.to_dict(), **served})
    except (OSError, ConnectionError, KeyboardInterrupt):
        os._exit(0)
    except BaseException:  # never unwind back into forked interpreter state
        os._exit(1)


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------


class _Slot:
    """One worker seat: process handle, channel, and restart bookkeeping."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc: Any = None
        self.conn: socket.socket | None = None
        self.heartbeat_fd: int | None = None
        #: starting | live | backoff | broken | stopped
        self.state = "stopped"
        self.busy = False
        self.started_at = 0.0
        self.last_beat = 0.0
        self.restart_at = 0.0
        self.restarts = 0
        self.crashes = 0
        self.consecutive_failures = 0
        self.crash_times: deque = deque()
        self.last_crash_op: str | None = None
        self.last_crash_kind: str | None = None
        #: Set by the monitor when it SIGKILLs a busy hung worker: the
        #: dispatcher's EOF path reports the death, but the *cause* was
        #: the hang, and status/metrics must say so.
        self.pending_kind: str | None = None
        #: dataset -> epoch this worker last reported answering from.
        self.epochs: dict[str, int] = {}
        #: Unloaded datasets the worker is told to drop with its next frame.
        self.dropped: list[str] = []

    def status(self) -> dict:
        return {
            "slot": self.index,
            "pid": self.proc.pid if self.proc is not None else None,
            "state": self.state,
            "busy": self.busy,
            "epochs": dict(self.epochs),
            "restarts": self.restarts,
            "crashes": self.crashes,
            "consecutive_failures": self.consecutive_failures,
            "last_crash_op": self.last_crash_op,
            "last_crash_kind": self.last_crash_kind,
        }


class WorkerPool:
    """N supervised pre-fork workers serving read-only dispatches.

    See the module docstring for the fault model.  *service_config*
    carries ``query_config`` kwargs and ``default_timeout_ms`` into each
    worker's :class:`~repro.server.service.OnexService`; snapshots are
    recorded with :meth:`remap` and reach a worker with the next request
    it is handed (or at spawn).  *on_capacity_change* is invoked as
    ``callback(live, size)`` on every live-count transition.
    """

    def __init__(
        self,
        size: int,
        *,
        service_config: dict | None = None,
        on_capacity_change: Callable[[int, int], None] | None = None,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = int(size)
        self._service_config = dict(service_config or {})
        self.on_capacity_change = on_capacity_change
        self._cond = threading.Condition()
        self._slots = [_Slot(i) for i in range(self.size)]
        #: dataset -> (snapshot path, epoch) currently published.
        self._snapshot_table: dict[str, tuple[str, int]] = {}
        self._closed = False
        self._monitor: threading.Thread | None = None
        self._ctx = get_context("fork")
        self.dispatched = 0
        self.failovers = 0
        _POOL_SIZE.set(float(self.size))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "WorkerPool":
        with self._cond:
            if self._monitor is not None:
                return self
            for slot in self._slots:
                self._spawn(slot)
            self._monitor = threading.Thread(
                target=self._monitor_loop, daemon=True
            )
            self._monitor.start()
        return self

    def wait_live(self, timeout: float | None = None) -> int:
        """Block until every slot is live (or *timeout*); returns live count."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._cond:
            while self._live_count() < self.size:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self._cond.wait(remaining if remaining is not None else 0.5)
            return self._live_count()

    def stop(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for slot in self._slots:
            self._close_slot_fds(slot)
        for slot in self._slots:
            proc = slot.proc
            if proc is not None:
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=2.0)
            slot.proc = None
            slot.state = "stopped"
            _WORKER_UP.set(0.0, slot=str(slot.index))
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
            self._monitor = None
        _POOL_LIVE.set(0.0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _live_count(self) -> int:
        return sum(1 for s in self._slots if s.state == "live")

    @property
    def live_workers(self) -> int:
        with self._cond:
            return self._live_count()

    def worker_pids(self) -> list[int | None]:
        with self._cond:
            return [
                s.proc.pid if s.proc is not None and s.state == "live" else None
                for s in self._slots
            ]

    def status(self) -> dict:
        with self._cond:
            return {
                "size": self.size,
                "live": self._live_count(),
                "dispatched": self.dispatched,
                "failovers": self.failovers,
                "workers": [s.status() for s in self._slots],
            }

    # ------------------------------------------------------------------
    # Snapshot announcements
    # ------------------------------------------------------------------

    def remap(self, dataset: str, path: str, epoch: int) -> None:
        """Record *dataset*'s published snapshot; nothing is sent.

        Every dispatch carries its dataset's entry and the worker maps
        it before answering (new workers read the table at spawn).  Keep
        *path* on disk until a newer entry is recorded **and** no
        dispatch tagged with the old one is in flight — the supervisor's
        per-dataset read/write lock guarantees both.
        """
        with self._cond:
            self._snapshot_table[dataset] = (str(path), int(epoch))

    def unload(self, dataset: str) -> None:
        """Retract *dataset*; each worker drops its mapping with the next
        frame it is sent (it is never asked about *dataset* before that)."""
        with self._cond:
            self._snapshot_table.pop(dataset, None)
            for slot in self._slots:
                slot.epochs.pop(dataset, None)
                slot.dropped.append(dataset)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def dispatch(self, request: Request) -> Response:
        """Execute *request* on a live worker; fails over on crashes.

        Read-only operations re-dispatch transparently (bounded by the
        pool size plus one); any other operation interrupted by a worker
        death raises :class:`WorkerCrashedError` — retryable, absorbed
        by the client's request-id idempotency window.

        The frame is tagged with the published epoch of the request's
        dataset, so whichever worker takes it answers from that epoch —
        read-your-writes per request.  A worker that cannot map it
        raises :class:`~repro.exceptions.PersistenceError` here and the
        supervisor answers from its own service.
        """
        envelope: dict = {"op": request.op, "params": request.params}
        if request.request_id is not None:
            envelope["request_id"] = request.request_id
        frame: dict = {"req": envelope}
        dataset = str(request.params.get("dataset", ""))
        with self._cond:
            entry = self._snapshot_table.get(dataset)
        if entry is not None:
            frame["epoch"] = [dataset, *entry]
        attempts = 0
        max_attempts = self.size + 1
        while True:
            slot = self._acquire_slot()
            conn, proc = slot.conn, slot.proc
            with self._cond:
                drop, slot.dropped = slot.dropped, []
            ok = False
            try:
                _send_frame(conn, {**frame, "drop": drop} if drop else frame)
                reply = _recv_frame(conn)
                if reply is None:
                    raise ConnectionError("worker closed mid-request")
                ok = True
            except (OSError, ConnectionError, ValueError):
                attempts += 1
                with self._cond:
                    slot.busy = False
                    self._note_death(slot, proc, kind="exit", op=request.op)
                    self._cond.notify_all()
                if request.op in READ_ONLY_OPERATIONS and attempts < max_attempts:
                    self.failovers += 1
                    _DISPATCH_TOTAL.inc(outcome="failover")
                    log_event(
                        _LOG,
                        "warning",
                        "pool.failover",
                        op=request.op,
                        slot=slot.index,
                        attempt=attempts,
                    )
                    continue
                _DISPATCH_TOTAL.inc(outcome="crashed")
                raise WorkerCrashedError(
                    f"worker {slot.index} died executing {request.op!r}; "
                    "the operation may or may not have applied — retry with "
                    "the same request_id",
                    retry_after=1.0,
                ) from None
            finally:
                if ok:
                    with self._cond:
                        slot.busy = False
                        if "epoch" in reply:
                            slot.epochs[dataset] = reply["epoch"]
                        self._cond.notify_all()
            if reply.get("ctl") == "attach_failed":
                _DISPATCH_TOTAL.inc(outcome="attach_failed")
                raise PersistenceError(
                    f"worker {slot.index} cannot attach {entry}: {reply['error']}"
                )
            if "epoch" in reply:
                _WORKER_EPOCH.set(float(reply["epoch"]), slot=str(slot.index))
            if "attach_ms" in reply:
                _ATTACH_MS.observe(float(reply["attach_ms"]))
            self.dispatched += 1
            _DISPATCH_TOTAL.inc(outcome="ok")
            return Response.from_dict(reply)

    def _acquire_slot(self) -> _Slot:
        deadline = time.monotonic() + _DISPATCH_WAIT_S
        with self._cond:
            while True:
                if self._closed:
                    raise OverloadedError("worker pool is shut down")
                live = [s for s in self._slots if s.state == "live"]
                if not live:
                    _DISPATCH_TOTAL.inc(outcome="no_capacity")
                    raise OverloadedError(
                        "worker pool has no live workers",
                        retry_after=self._retry_after_hint(),
                    )
                for slot in live:
                    if not slot.busy:
                        slot.busy = True
                        return slot
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    _DISPATCH_TOTAL.inc(outcome="no_capacity")
                    raise OverloadedError(
                        f"all {len(live)} live workers busy for "
                        f"{_DISPATCH_WAIT_S:g}s",
                        retry_after=1.0,
                    )
                self._cond.wait(remaining)

    def _retry_after_hint(self) -> float:
        now = time.monotonic()
        pending = [
            s.restart_at - now
            for s in self._slots
            if s.state in ("backoff", "broken")
        ]
        if not pending:
            return 1.0
        return max(0.5, min(min(pending) + _BACKOFF_BASE_S, _BACKOFF_CAP_S))

    # ------------------------------------------------------------------
    # Spawning, monitoring, restart policy (monitor thread + helpers)
    # ------------------------------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        """Fork a worker into *slot*.  Caller holds the condition."""
        parent_sock, child_sock = socket.socketpair()
        hb_read, hb_write = os.pipe()
        os.set_blocking(hb_read, False)
        os.set_blocking(hb_write, False)
        supervisor_ends = [parent_sock.close, partial(os.close, hb_read)]
        for other in self._slots:
            if other.conn is not None:
                supervisor_ends.append(other.conn.close)
            if other.heartbeat_fd is not None:
                supervisor_ends.append(partial(os.close, other.heartbeat_fd))
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                slot.index,
                child_sock,
                hb_write,
                dict(self._service_config),
                dict(self._snapshot_table),
                supervisor_ends,
            ),
            daemon=True,
            name=f"onex-worker-{slot.index}",
        )
        proc.start()
        child_sock.close()
        os.close(hb_write)
        slot.proc = proc
        slot.conn = parent_sock
        slot.heartbeat_fd = hb_read
        slot.state = "starting"
        slot.busy = False
        slot.epochs = {name: epoch for name, (_, epoch) in self._snapshot_table.items()}
        slot.dropped = []
        slot.started_at = time.monotonic()
        slot.last_beat = slot.started_at
        slot.restarts += 1
        _RESTARTS_TOTAL.inc(slot=str(slot.index))
        log_event(
            _LOG,
            "info",
            "pool.worker_spawned",
            slot=slot.index,
            pid=proc.pid,
            restarts=slot.restarts,
        )

    def _close_slot_fds(self, slot: _Slot) -> None:
        if slot.conn is not None:
            try:
                slot.conn.close()
            except OSError:
                pass  # already torn down by the peer
            slot.conn = None
        if slot.heartbeat_fd is not None:
            try:
                os.close(slot.heartbeat_fd)
            except OSError:
                pass  # already closed
            slot.heartbeat_fd = None

    def _note_death(
        self, slot: _Slot, proc: Any, kind: str, op: str | None = None
    ) -> None:
        """Transition a dead (or doomed) worker out of service.

        Caller holds the condition.  Idempotent per process instance:
        concurrent detection by a dispatcher (EOF) and the monitor
        (``is_alive``) collapses to one transition.
        """
        if self._closed or slot.proc is not proc or proc is None:
            return
        if slot.state not in ("starting", "live"):
            return
        if slot.pending_kind is not None:
            kind = slot.pending_kind
            slot.pending_kind = None
        was_live = slot.state == "live"
        now = time.monotonic()
        self._close_slot_fds(slot)
        try:
            if proc.is_alive():
                proc.kill()
        except (OSError, ValueError):
            pass  # already exited and reaped
        slot.crashes += 1
        slot.last_crash_op = op
        slot.last_crash_kind = kind
        _CRASHES_TOTAL.inc(slot=str(slot.index), kind=kind)
        _WORKER_UP.set(0.0, slot=str(slot.index))
        uptime = now - slot.started_at
        if uptime >= _BACKOFF_RESET_S:
            slot.consecutive_failures = 1
        else:
            slot.consecutive_failures += 1
        slot.crash_times.append(now)
        while (
            slot.crash_times
            and now - slot.crash_times[0] > _FLAP_WINDOW_S
        ):
            slot.crash_times.popleft()
        if len(slot.crash_times) >= _FLAP_THRESHOLD:
            slot.state = "broken"
            slot.restart_at = now + _FLAP_COOLDOWN_S
            log_event(
                _LOG,
                "error",
                "pool.worker_broken",
                slot=slot.index,
                crashes_in_window=len(slot.crash_times),
                cooldown_s=_FLAP_COOLDOWN_S,
            )
        else:
            delay = min(
                _BACKOFF_CAP_S,
                _BACKOFF_BASE_S * (2 ** max(0, slot.consecutive_failures - 1)),
            )
            slot.state = "backoff"
            slot.restart_at = now + delay
            log_event(
                _LOG,
                "warning",
                "pool.worker_died",
                slot=slot.index,
                kind=kind,
                op=op,
                uptime_s=round(uptime, 3),
                restart_in_s=round(delay, 3),
            )
        if was_live:
            self._capacity_changed()

    def _capacity_changed(self) -> None:
        """Publish the new live count.  Caller holds the condition."""
        live = self._live_count()
        _POOL_LIVE.set(float(live))
        callback = self.on_capacity_change
        self._cond.notify_all()
        if callback is not None:
            try:
                callback(live, self.size)
            except Exception as exc:  # observers must not kill the monitor
                log_event(
                    _LOG, "error", "pool.capacity_callback", error=str(exc)
                )

    def _monitor_loop(self) -> None:
        poll_s = max(0.02, _HEARTBEAT_INTERVAL_S / 4.0)
        while True:
            with self._cond:
                if self._closed:
                    return
                now = time.monotonic()
                for slot in self._slots:
                    self._monitor_slot(slot, now)
            time.sleep(poll_s)

    def _monitor_slot(self, slot: _Slot, now: float) -> None:
        """One monitoring pass over *slot*.  Caller holds the condition."""
        if slot.state in ("backoff", "broken"):
            if now >= slot.restart_at:
                self._spawn(slot)
            return
        if slot.state not in ("starting", "live"):
            return
        proc = slot.proc
        if proc is None:
            return
        if not proc.is_alive() and not slot.busy:
            # A busy slot's dispatcher owns the EOF (it must decide
            # failover vs WorkerCrashedError); reap idle deaths here.
            self._note_death(slot, proc, kind="exit")
            return
        if slot.heartbeat_fd is not None:
            try:
                while os.read(slot.heartbeat_fd, 4096):
                    slot.last_beat = now
            except BlockingIOError:
                pass  # pipe drained
            except OSError:
                pass  # fd died with the worker
        if slot.state == "starting":
            if slot.conn is not None and select.select([slot.conn], [], [], 0)[0]:
                try:
                    frame = _recv_frame(slot.conn)
                except (OSError, ConnectionError, ValueError):
                    frame = None
                if frame is not None and frame.get("ctl") == "ready":
                    slot.state = "live"
                    slot.last_beat = now
                    _WORKER_UP.set(1.0, slot=str(slot.index))
                    slot.consecutive_failures = 0
                    log_event(
                        _LOG,
                        "info",
                        "pool.worker_live",
                        slot=slot.index,
                        pid=proc.pid,
                    )
                    self._capacity_changed()
                else:
                    self._note_death(slot, proc, kind="startup")
            elif now - slot.started_at > _START_TIMEOUT_S:
                self._note_death(slot, proc, kind="startup")
            return
        # live: a stale heartbeat means the worker is wedged (or a
        # request exceeded the stall limit and the worker stopped
        # beating on purpose) — kill it; the dispatcher holding it sees
        # EOF and fails over.
        if now - slot.last_beat > _HEARTBEAT_TIMEOUT_S:
            log_event(
                _LOG,
                "warning",
                "pool.worker_hung",
                slot=slot.index,
                pid=proc.pid,
                stale_s=round(now - slot.last_beat, 3),
            )
            try:
                proc.kill()
            except (OSError, ValueError):
                pass  # already dead
            if not slot.busy:
                self._note_death(slot, proc, kind="hang")
            else:
                # The dispatcher's EOF path records the death; hand the
                # cause over so status/metrics say "hang", not "exit".
                slot.pending_kind = "hang"
