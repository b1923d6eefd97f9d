"""Restore durable datasets: latest valid checkpoint + WAL tail replay.

:func:`recover_all` walks every identity-bearing subdirectory of the
manager's data dir, and per dataset:

1. verifies and loads the newest checkpoint whose artifacts hash-check
   (falling back to the previous retained entry, then to "none");
2. re-registers the dataset with the engine via
   :meth:`~repro.core.engine.OnexEngine.restore_dataset`, reseeding
   monitors, the event sequence, and stream counters from the manifest;
3. opens the WAL (truncating any torn tail) and replays every record
   with ``seq > checkpoint_seq`` through the caller's ``apply`` hook —
   the service routes these through the very handlers that produced
   them, so replay preserves acknowledged state *and* refills the
   idempotency window.

Invariants (asserted by the chaos suite):

- every acknowledged mutating op is either inside the checkpoint or in
  the replayed tail — never lost;
- a torn final record (crash mid-append, pre-ack) is dropped, never
  "repaired" into a write nobody was promised;
- event sequence numbers continue monotonically across the restart.

A dataset whose directory holds no loadable checkpoint cannot be
replayed (the WAL stores deltas, not a base) — it is reported in
``errors`` and skipped rather than aborting the whole server start.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.engine import OnexEngine
from repro.durability import checkpoint as checkpoint_mod
from repro.durability.manager import DurabilityManager
from repro.durability.wal import WalRecord
from repro.exceptions import PersistenceError
from repro.obs.logs import get_logger, log_event
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.testing import faults

__all__ = ["RecoveryReport", "recover_all"]

_LOGGER = get_logger("durability")

#: ``hook(dataset_name, wal_record)`` — the service's replay / mark callbacks.
_Hook = Callable[[str, WalRecord], object]

_REPLAYED_TOTAL = REGISTRY.counter(
    "onex_recovery_replayed_records_total", "WAL records replayed at recovery"
)
_RECOVERED_DATASETS = REGISTRY.counter(
    "onex_recovery_datasets_total", "Datasets restored at recovery"
)
_TORN_BYTES = REGISTRY.counter(
    "onex_recovery_torn_bytes_total", "Torn WAL tail bytes dropped at recovery"
)
_RECOVERY_SECONDS = REGISTRY.gauge(
    "onex_recovery_last_seconds", "Wall-clock duration of the last recovery"
)


@dataclass
class RecoveryReport:
    """What a recovery pass restored (surfaced via /health and logs)."""

    datasets: dict[str, dict] = field(default_factory=dict)
    errors: list[dict] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def replayed_records(self) -> int:
        return sum(d["replayed"] for d in self.datasets.values())

    def as_dict(self) -> dict:
        return {
            "datasets": dict(self.datasets),
            "errors": list(self.errors),
            "replayed_records": self.replayed_records,
            "duration_s": self.duration_s,
        }


def recover_all(
    manager: DurabilityManager,
    engine: OnexEngine,
    apply: _Hook,
    mark: _Hook | None = None,
) -> RecoveryReport:
    """Restore every stored dataset into *engine* (see module docstring).

    *apply* is ``apply(dataset_name, record)`` — the service's replay
    hook, which must execute the record's operation without re-logging
    it.  *mark* is ``mark(dataset_name, record)``, called for WAL
    records already *covered* by the restored checkpoint (their effects
    are in the checkpoint state, so they must NOT re-execute) — the
    service uses it to reseed the idempotency window, so a client retry
    of a pre-crash request dedupes even when a checkpoint landed between
    its execution and the crash.  Datasets the engine already holds are
    skipped (their state is live, not on disk).
    """
    started = time.monotonic()
    report = RecoveryReport()
    for name, directory in manager.stored_datasets():
        if name in engine.dataset_names:
            continue
        with span("wal.recover", dataset=name):
            try:
                summary = _recover_one(manager, engine, apply, mark, name)
            except Exception as exc:  # keep serving what *can* recover
                report.errors.append({"dataset": name, "error": str(exc)})
                manager.detach(name)
                log_event(
                    _LOGGER,
                    "error",
                    "recovery.failed",
                    dataset=name,
                    error=str(exc),
                )
                continue
        report.datasets[name] = summary
        _RECOVERED_DATASETS.inc()
        _REPLAYED_TOTAL.inc(summary["replayed"])
        if summary["torn_bytes"]:
            _TORN_BYTES.inc(summary["torn_bytes"])
    report.duration_s = time.monotonic() - started
    _RECOVERY_SECONDS.set(report.duration_s)
    log_event(
        _LOGGER,
        "info",
        "recovery.replayed",
        datasets=len(report.datasets),
        records=report.replayed_records,
        errors=len(report.errors),
        duration_s=round(report.duration_s, 4),
    )
    return report


def _recover_one(
    manager: DurabilityManager,
    engine: OnexEngine,
    apply: _Hook,
    mark: _Hook | None,
    name: str,
) -> dict:
    # Chaos hook: the recovery x serving interleaving tests stretch this
    # window (sleep) to observe /ready=false + clean 503s mid-recovery,
    # or fail one dataset (raise) to observe degraded partial recovery.
    faults.fire("recovery.dataset", dataset=name)
    handle, scan = manager.attach(name)
    entry = checkpoint_mod.latest_valid_checkpoint(handle.directory)
    if entry is None:
        raise PersistenceError(
            f"dataset {name!r} has no valid checkpoint to restore from"
        )
    base = checkpoint_mod.load_checkpoint(handle.directory, entry)
    engine.restore_dataset(
        base.raw_dataset,
        base,
        monitors=entry.get("monitors", ()),
        event_seq=entry.get("event_seq", 0),
        stream_counters=entry.get("stream_counters") or None,
    )
    handle.checkpoint_seq = entry["seq"]
    tail = [r for r in scan.records if r.seq > entry["seq"]]
    if mark is not None:
        # Compaction keeps everything after the *previous* checkpoint,
        # so covered records back to one full checkpoint interval are
        # still here for idempotency reseeding.
        for record in scan.records:
            if record.seq <= entry["seq"]:
                mark(name, record)
    for record in tail:
        apply(name, record)
    handle.appends_since_checkpoint = len(tail)
    return {
        "checkpoint_seq": entry["seq"],
        "wal_seq": handle.wal.last_seq,
        "replayed": len(tail),
        "torn_bytes": scan.torn_bytes,
        # Post-replay, not the checkpoint snapshot: the chaos suite
        # compares this against the never-crashed reference.
        "fingerprint": engine.refresh_fingerprint(name),
    }
