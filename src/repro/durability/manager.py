"""Per-server durability façade: one directory per dataset.

The service layer talks to a single :class:`DurabilityManager` rooted at
``--data-dir``.  Each attached dataset owns a subdirectory::

    <data-dir>/<slug>/
        dataset.json     identity file: the (unslugged) dataset name
        wal.log          write-ahead log
        base-<seq>/      checkpoints: durable snapshot directories (see
                         checkpoint.py), the two newest

The slug is the dataset name with non-``[A-Za-z0-9._-]`` characters
replaced by ``_`` plus a short hash suffix whenever the substitution
changed anything, so distinct exotic names never collide on disk; the
``dataset.json`` identity file (written before the first WAL append)
keeps the real name recoverable without parsing any checkpoint.

Checkpoint cadence is append-count based (``checkpoint_every``); after
each committed checkpoint the WAL is compacted up to the *previous*
retained checkpoint's seq, preserving the fallback path described in
:mod:`repro.durability.checkpoint`.
"""

from __future__ import annotations

import hashlib
import re
import shutil
import threading
from pathlib import Path

from repro.core.base import OnexBase
from repro.core.persist import atomic_json_write
from repro.durability import checkpoint as checkpoint_mod
from repro.durability.wal import WalRecord, WalScanResult, WriteAheadLog
from repro.exceptions import PersistenceError
from repro.obs.logs import get_logger, log_event
from repro.obs.metrics import REGISTRY

__all__ = ["DatasetDurability", "DurabilityManager", "dataset_slug"]

_LOGGER = get_logger("durability")

_WAL_SIZE = REGISTRY.gauge(
    "onex_wal_size_bytes", "Current size of each dataset write-ahead log"
)

_SLUG_UNSAFE = re.compile(r"[^A-Za-z0-9._-]")
IDENTITY_NAME = "dataset.json"


def dataset_slug(name: str) -> str:
    """Filesystem-safe directory name for *name* (stable, collision-free)."""
    slug = _SLUG_UNSAFE.sub("_", name) or "_"
    if slug != name:
        slug = f"{slug}-{hashlib.sha256(name.encode()).hexdigest()[:8]}"
    return slug


class DatasetDurability:
    """WAL + checkpoint state of one attached dataset."""

    def __init__(
        self,
        name: str,
        directory: Path,
        wal: WriteAheadLog,
        checkpoint_seq: int = 0,
    ) -> None:
        self.name = name
        self.directory = directory
        self.wal = wal
        self.checkpoint_seq = checkpoint_seq
        self.appends_since_checkpoint = 0

    def log(
        self, op: str, params: dict, request_id: str | None = None
    ) -> WalRecord:
        record = self.wal.append(op, params, request_id)
        self.appends_since_checkpoint += 1
        _WAL_SIZE.set(self.wal.size())
        return record

    def checkpoint(self, base: OnexBase, stream_state: dict | None = None) -> dict:
        """Commit a checkpoint at the current WAL position; compact.

        The WAL is fsynced first so the checkpoint never claims coverage
        the log cannot back; compaction keeps everything after the
        *older* retained checkpoint (fallback path).
        """
        self.wal.sync_now()
        entry = checkpoint_mod.write_checkpoint(
            self.directory,
            base,
            wal_seq=self.wal.last_seq,
            stream_state=stream_state,
        )
        freed = self.wal.compact(checkpoint_mod.checkpoint_seqs(self.directory)[0])
        self.checkpoint_seq = entry["seq"]
        self.appends_since_checkpoint = 0
        _WAL_SIZE.set(self.wal.size())
        log_event(
            _LOGGER,
            "info",
            "checkpoint.committed",
            dataset=self.name,
            wal_seq=entry["seq"],
            compacted_bytes=freed,
        )
        return entry

    def status(self) -> dict:
        return {
            "wal_seq": self.wal.last_seq,
            "checkpoint_seq": self.checkpoint_seq,
            "wal_bytes": self.wal.size(),
            "appends_since_checkpoint": self.appends_since_checkpoint,
        }

    def close(self) -> None:
        self.wal.close()


class DurabilityManager:
    """All attached datasets' durability state under one ``--data-dir``."""

    def __init__(
        self,
        data_dir: str | Path,
        *,
        wal_sync: str = "interval",
        wal_sync_interval_ms: float = 50.0,
        checkpoint_every: int = 256,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.wal_sync = wal_sync
        self.wal_sync_interval_ms = float(wal_sync_interval_ms)
        self.checkpoint_every = max(1, int(checkpoint_every))
        self._datasets: dict[str, DatasetDurability] = {}
        self._lock = threading.Lock()
        self.data_dir.mkdir(parents=True, exist_ok=True)

    # -- attachment ----------------------------------------------------

    def attach(self, name: str) -> tuple[DatasetDurability, WalScanResult]:
        """Open (creating if needed) the durability state for *name*.

        Returns the handle plus the WAL scan — a fresh dataset scans
        empty; an existing directory (recovery) yields the tail to
        replay.  The identity file is (re)written before any append so
        recovery can always map the directory back to its dataset.
        Crash debris (``*.tmp``) is swept first.  ``checkpoint_seq``
        starts at 0: recovery sets it from the checkpoint it loaded, a
        load from its checkpoint.
        """
        with self._lock:
            if name in self._datasets:
                raise PersistenceError(f"dataset {name!r} already attached")
            directory = self.data_dir / dataset_slug(name)
            directory.mkdir(parents=True, exist_ok=True)
            checkpoint_mod.sweep_debris(directory)
            atomic_json_write(directory / IDENTITY_NAME, {"dataset": name})
            wal = WriteAheadLog(
                directory / "wal.log",
                sync=self.wal_sync,
                interval_ms=self.wal_sync_interval_ms,
            )
            scan = wal.open()
            handle = DatasetDurability(name, directory, wal)
            self._datasets[name] = handle
            return handle, scan

    def get(self, name: str) -> DatasetDurability | None:
        with self._lock:
            return self._datasets.get(name)

    def detach(self, name: str, *, delete: bool = False) -> None:
        """Close (and optionally delete) one dataset's durability state."""
        with self._lock:
            handle = self._datasets.pop(name, None)
        if handle is None:
            return
        handle.close()
        if delete:
            shutil.rmtree(handle.directory, ignore_errors=True)

    # -- hooks the service calls --------------------------------------

    def log(
        self, name: str, op: str, params: dict, request_id: str | None
    ) -> WalRecord:
        handle = self.get(name)
        if handle is None:
            raise PersistenceError(f"dataset {name!r} has no durability state")
        return handle.log(op, params, request_id)

    def maybe_checkpoint(
        self, name: str, base: OnexBase, stream_state: dict | None = None
    ) -> dict | None:
        """Checkpoint when the append-count cadence says so."""
        handle = self.get(name)
        if handle is None:
            return None
        if handle.appends_since_checkpoint < self.checkpoint_every:
            return None
        return handle.checkpoint(base, stream_state)

    # -- discovery & introspection ------------------------------------

    def stored_datasets(self) -> list[tuple[str, Path]]:
        """(dataset name, directory) for every identity file on disk."""
        import json

        out: list[tuple[str, Path]] = []
        if not self.data_dir.is_dir():
            return out
        for directory in sorted(self.data_dir.iterdir()):
            identity = directory / IDENTITY_NAME
            if not identity.is_file():
                continue
            try:
                with open(identity) as fh:
                    name = json.load(fh)["dataset"]
            except (OSError, ValueError, KeyError):
                continue
            out.append((str(name), directory))
        return out

    def status(self) -> dict:
        with self._lock:
            return {
                name: handle.status()
                for name, handle in sorted(self._datasets.items())
            }

    def close(self) -> None:
        with self._lock:
            handles = list(self._datasets.values())
            self._datasets.clear()
        for handle in handles:
            handle.close()
