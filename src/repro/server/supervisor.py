"""Supervisor: routes requests between the authoritative service and the pool.

:class:`Supervisor` wraps the single-process
:class:`~repro.server.service.OnexService` (which stays authoritative
for every mutation, the durability layer, and streaming state) and a
:class:`~repro.server.pool.WorkerPool` of forked read-only replicas.
It duck-types the service's surface, so the HTTP front end and the CLI
drive either one identically — single-process mode remains the default
and bit-identical, multi-process is ``serve --workers N``.

Routing:

- Operations in
  :data:`~repro.server.protocol.POOL_DISPATCHED_OPERATIONS` whose
  dataset has a current snapshot go to a worker.
- Everything else — mutations, dataset lifecycle, streaming — executes
  in the supervisor's own service.

Read-your-writes across processes comes from *lazy republication* plus
*epoch-tagged dispatch*: a successful mutation marks its dataset dirty,
and the next dispatched read first republishes the base as a fresh
``epoch-<n>`` snapshot (:func:`~repro.core.mmap_layout.save_base_snapshot`,
one array dump) and records its path in the pool's snapshot table.
Nothing is broadcast: every dispatched frame carries its dataset's table
entry and the worker that takes it maps that epoch first if it holds
another (one ``mmap``; groups are built on demand), so a publication
costs the reading worker one attach and idle workers nothing.  The HTTP
layer's per-dataset read/write lock serialises mutations against reads,
so the base is quiescent while it is published and no newer epoch can
supersede the tagged one while a read is in flight; the per-dataset
publish mutex only collapses concurrent readers onto one publication.
Superseded epochs are deleted off the read's path — a worker still
mapping one keeps the inode alive.  A worker that cannot map its tagged
epoch says so and the supervisor answers that request itself: degraded,
never stale.

Failure surface: :class:`~repro.exceptions.OverloadedError` (no live
workers / all busy) and :class:`~repro.exceptions.WorkerCrashedError`
(a worker died holding a non-read-only dispatch) propagate out of
:meth:`handle` for the HTTP layer to map to ``503 + Retry-After``.
"""

from __future__ import annotations

import hashlib
import re
import shutil
import threading
import time
from pathlib import Path
from typing import Any

from repro.core.mmap_layout import clean_stale_snapshots, save_base_snapshot
from repro.exceptions import PersistenceError
from repro.obs.logs import get_logger, log_event
from repro.obs.metrics import REGISTRY
from repro.server.pool import WorkerPool
from repro.server.protocol import POOL_DISPATCHED_OPERATIONS, Request, Response
from repro.server.service import OnexService

__all__ = ["Supervisor"]

_LOG = get_logger("supervisor")

_PUBLISH_TOTAL = REGISTRY.counter(
    "onex_pool_snapshot_publish_total",
    "Base snapshots published to the worker pool, per dataset",
)
_PUBLISH_MS = REGISTRY.histogram(
    "onex_pool_snapshot_publish_ms", "Snapshot publication latency"
)


def _dataset_slug(name: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", name)[:48]
    digest = hashlib.sha1(name.encode()).hexdigest()[:8]
    return f"{safe}-{digest}"


class _Publication:
    """Publish state of one dataset: current epoch dir + dirty flag."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.epoch = 0
        self.path: Path | None = None
        self.dirty = True


class Supervisor:
    """The pre-fork process manager; a drop-in ``OnexService`` facade.

    *service* stays the single authority for mutations and durability.
    *snapshot_root* holds the published mmap snapshots
    (``<root>/<slug>/epoch-<n>``); stale debris from a previous crashed
    run is swept on :meth:`start`.  The pool's timings (backoff,
    heartbeat, flap detection) are constants of :mod:`repro.server.pool`.
    """

    def __init__(
        self,
        service: OnexService,
        *,
        workers: int,
        snapshot_root: str | Path,
        query_config_kwargs: dict | None = None,
        default_timeout_ms: float | None = None,
    ) -> None:
        self._service = service
        self._root = Path(snapshot_root)
        self._pubs: dict[str, _Publication] = {}
        self._pubs_lock = threading.Lock()
        self._gate: Any = None
        self._gate_cap = 0
        self._started = False
        service_config: dict = {
            "query_config": dict(query_config_kwargs or {}),
        }
        if default_timeout_ms is not None:
            service_config["default_timeout_ms"] = default_timeout_ms
        self.pool = WorkerPool(
            workers,
            service_config=service_config,
            on_capacity_change=self._on_capacity_change,
        )

    # ------------------------------------------------------------------
    # Service facade (what the HTTP layer and CLI call)
    # ------------------------------------------------------------------

    @property
    def engine(self) -> Any:
        return self._service.engine

    @property
    def durability(self) -> Any:
        return self._service.durability

    @property
    def last_recovery(self) -> Any:
        return self._service.last_recovery

    def durability_status(self) -> dict | None:
        return self._service.durability_status()

    def recover(self) -> Any:
        return self._service.recover()

    def handle(self, request: Request | dict | str | bytes) -> Response:
        """Route one request; see the module docstring for the split.

        May raise ``OverloadedError`` / ``WorkerCrashedError`` when the
        pool cannot complete a dispatch — the HTTP layer maps both to
        ``503 + Retry-After``; every other failure is an envelope.
        """
        if not isinstance(request, Request):
            try:
                if isinstance(request, dict):
                    request = Request.from_dict(request)
                else:
                    request = Request.from_json(request)
            except Exception as exc:
                return Response.failure(exc)
        if self._started and request.op in POOL_DISPATCHED_OPERATIONS:
            dataset = str(request.params.get("dataset", ""))
            if dataset in self._service.engine.dataset_names:
                if self._ensure_published(dataset):
                    try:
                        return self.pool.dispatch(request)
                    except PersistenceError as exc:
                        # The worker could not map the tagged epoch:
                        # answer locally, degraded but never stale.
                        log_event(
                            _LOG,
                            "error",
                            "supervisor.attach_failed",
                            dataset=dataset,
                            error=str(exc),
                        )
        response = self._service.handle(request)
        if response.ok:
            self._after_local_success(request)
        return response

    def close(self) -> None:
        self.pool.stop()
        self._service.close()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, *, timeout: float | None = 60.0) -> "Supervisor":
        """Sweep stale snapshots, publish loaded datasets, start workers."""
        # Every start republishes, so nothing of a previous run is kept
        # and epoch numbering can restart.
        removed = clean_stale_snapshots(self._root)
        if removed:
            log_event(
                _LOG, "info", "supervisor.swept_stale", removed=len(removed)
            )
        self._started = True
        for name in self._service.engine.dataset_names:
            try:
                self._ensure_published(name)
            except Exception as exc:
                log_event(
                    _LOG,
                    "error",
                    "supervisor.initial_publish_failed",
                    dataset=name,
                    error=str(exc),
                )
        self.pool.start()
        live = self.pool.wait_live(timeout)
        log_event(
            _LOG,
            "info",
            "supervisor.started",
            workers=self.pool.size,
            live=live,
        )
        return self

    # ------------------------------------------------------------------
    # Health / status
    # ------------------------------------------------------------------

    def pool_status(self) -> dict:
        status = self.pool.status()
        with self._pubs_lock:
            status["published"] = {
                name: {
                    "epoch": pub.epoch,
                    "dirty": pub.dirty,
                    "path": str(pub.path) if pub.path is not None else None,
                }
                for name, pub in sorted(self._pubs.items())
                if name in self._service.engine.dataset_names
            }
        return status

    def attach_gate(self, gate: Any) -> None:
        """Wire the HTTP admission gate for degraded-capacity scaling.

        The gate's configured cap is treated as the full-capacity
        in-flight budget; it shrinks proportionally as workers die and
        recovers as they restart (never below 1 — the supervisor itself
        can always serve non-dispatched operations).
        """
        self._gate = gate
        self._gate_cap = int(getattr(gate, "max_in_flight", 0))
        self._on_capacity_change(self.pool.live_workers, self.pool.size)

    def _on_capacity_change(self, live: int, size: int) -> None:
        gate = self._gate
        if gate is None or self._gate_cap <= 0 or size <= 0:
            return
        scaled = max(1, round(self._gate_cap * max(live, 1) / size))
        try:
            gate.resize(scaled)
        except Exception as exc:
            log_event(_LOG, "error", "supervisor.gate_resize", error=str(exc))
        else:
            log_event(
                _LOG,
                "info",
                "supervisor.capacity",
                live=live,
                size=size,
                max_in_flight=scaled,
            )

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------

    def _publication(self, name: str) -> _Publication:
        with self._pubs_lock:
            pub = self._pubs.get(name)
            if pub is None:
                pub = self._pubs[name] = _Publication()
            return pub

    def _ensure_published(self, name: str) -> bool:
        """Publish *name*'s base if it has no current snapshot.

        Returns ``True`` when a fresh snapshot is announced to the pool
        (dispatch may proceed), ``False`` when publication failed — the
        caller then executes locally, which is degraded but correct.
        """
        pub = self._publication(name)
        if not pub.dirty and pub.path is not None:
            return True
        with pub.lock:
            if not pub.dirty and pub.path is not None:
                return True
            try:
                self._publish_locked(name, pub)
            except (PersistenceError, OSError) as exc:
                log_event(
                    _LOG,
                    "error",
                    "supervisor.publish_failed",
                    dataset=name,
                    error=str(exc),
                )
                return False
        return True

    def _publish_locked(self, name: str, pub: _Publication) -> None:
        started = time.monotonic()
        base = self._service.engine.base(name)
        epoch = pub.epoch + 1
        path = save_base_snapshot(
            base, self._root / _dataset_slug(name) / f"epoch-{epoch}"
        )
        self.pool.remap(name, str(path), epoch)
        old = pub.path
        pub.epoch = epoch
        pub.path = path
        pub.dirty = False
        if old is not None and old != path:
            # Safe while workers still map it (the inode outlives the
            # directory entry) and off this read's path; whatever a
            # shutdown interrupts, the sweep at the next start removes.
            threading.Thread(
                target=shutil.rmtree, args=(old, True), daemon=True
            ).start()
        elapsed_ms = (time.monotonic() - started) * 1000.0
        _PUBLISH_TOTAL.inc(dataset=name)
        _PUBLISH_MS.observe(elapsed_ms)
        log_event(
            _LOG,
            "info",
            "supervisor.published",
            dataset=name,
            epoch=epoch,
            ms=round(elapsed_ms, 2),
        )

    def _after_local_success(self, request: Request) -> None:
        """Keep publication state consistent after a local mutation.

        A freshly loaded dataset needs nothing here: its publication is
        created dirty on first use, and a loaded name cannot be loaded
        over (the service refuses), only unloaded first.
        """
        op = request.op
        if op in ("add_series", "append_points"):
            self._publication(str(request.params.get("dataset", ""))).dirty = True
        elif op == "unload_dataset":
            name = str(request.params.get("dataset", ""))
            pub = self._publication(name)
            self.pool.unload(name)
            if pub.path is not None:
                shutil.rmtree(pub.path.parent, ignore_errors=True)
            # The entry stays: epoch numbers, hence snapshot paths, are
            # not reused if the name is loaded again, so no worker can
            # mistake a mapping of the old dataset for the new one.
            pub.path = None
            pub.dirty = True
