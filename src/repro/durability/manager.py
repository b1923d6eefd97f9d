"""Per-server durability façade: one directory per dataset.

The service layer talks to a single :class:`DurabilityManager` rooted at
``--data-dir``.  Each attached dataset owns a subdirectory::

    <data-dir>/<slug>/
        dataset.json     identity file: the (unslugged) dataset name
        wal.log          write-ahead log (repro.durability.wal)
        base-<seq>/      checkpoints: durable snapshot directories
                         (:meth:`OnexBase.save`'s) of the base, its
                         dataset and its streaming state as of WAL seq <seq>

The slug is the dataset name with non-``[A-Za-z0-9._-]`` characters
replaced by ``_`` plus a short hash suffix whenever the substitution
changed anything, so distinct exotic names never collide on disk; the
``dataset.json`` identity file (written before the first WAL append)
keeps the real name recoverable without parsing any checkpoint.

A checkpoint commits with the snapshot writer's own rename (tmp, fsync,
``os.replace``, directory fsync), so ``base-<seq>/`` is either absent or
complete, and it verifies itself.  Each :class:`DatasetDurability`
handle records the seq of the checkpoint it last loaded (recovery,
newest-first past every one that does not load) or last wrote — its
*own* checkpoint — and one rule follows from it: a new checkpoint keeps
itself and the handle's own, deletes every other ``base-*`` once it is
durable, and compacts the WAL to the handle's own, so a new checkpoint
that turns out not to load falls back to one that did, with the WAL
tail it needs.  A checkpoint at the handle's own seq is skipped; any
other directory at that seq did not load, and is replaced.  A crash
before the rename leaves a ``*.tmp``, swept at the next attach.
Checkpoint cadence is append-count based (``checkpoint_every``).
"""

from __future__ import annotations

import hashlib
import re
import shutil
import threading
import time
from pathlib import Path

from repro.core.base import OnexBase
from repro.core.mmap_layout import ARRAYS_FILE, META_FILE, load_base_snapshot
from repro.core.persist import atomic_json_write
from repro.durability.wal import WalRecord, WalScanResult, WriteAheadLog
from repro.exceptions import PersistenceError
from repro.obs.logs import get_logger, log_event
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span

__all__ = ["DatasetDurability", "DurabilityManager", "dataset_slug"]

_LOGGER = get_logger("durability")

_WAL_SIZE = REGISTRY.gauge(
    "onex_wal_size_bytes", "Current size of each dataset write-ahead log"
)
_CHECKPOINTS_TOTAL = REGISTRY.counter(
    "onex_checkpoints_total", "Checkpoints committed",
)
_CHECKPOINT_SECONDS = REGISTRY.gauge(
    "onex_checkpoint_last_seconds", "Wall-clock duration of the last checkpoint"
)

_SLUG_UNSAFE = re.compile(r"[^A-Za-z0-9._-]")
_CHECKPOINT = re.compile(r"base-([0-9]+)")
IDENTITY_NAME = "dataset.json"


def dataset_slug(name: str) -> str:
    """Filesystem-safe directory name for *name* (stable, collision-free)."""
    slug = _SLUG_UNSAFE.sub("_", name) or "_"
    if slug != name:
        slug = f"{slug}-{hashlib.sha256(name.encode()).hexdigest()[:8]}"
    return slug


class DatasetDurability:
    """WAL + checkpoint state of one attached dataset.

    ``checkpoint_seq`` is the handle's own checkpoint (module docstring):
    ``None`` until :meth:`restore` loads one or :meth:`checkpoint` writes
    one.
    """

    def __init__(self, name: str, directory: Path, wal: WriteAheadLog) -> None:
        self.name = name
        self.directory = directory
        self.wal = wal
        self.checkpoint_seq: int | None = None
        self.appends_since_checkpoint = 0

    def log(
        self, op: str, params: dict, request_id: str | None = None
    ) -> WalRecord:
        record = self.wal.append(op, params, request_id)
        self.appends_since_checkpoint += 1
        _WAL_SIZE.set(self.wal.size())
        return record

    def _seqs(self) -> list[int]:
        """WAL seqs of the ``base-<seq>/`` directories here, ascending."""
        return sorted(
            int(match.group(1))
            for entry in self.directory.iterdir()
            if (match := _CHECKPOINT.fullmatch(entry.name)) and entry.is_dir()
        )

    def restore(
        self, records: list[WalRecord]
    ) -> tuple[OnexBase, dict, list[WalRecord]]:
        """Load the newest checkpoint that loads and make it the handle's own.

        Loads as :meth:`OnexBase.load` does (verified), newest-first past
        every directory that raises :class:`PersistenceError`.  Returns
        ``(base, meta, tail)``: *tail* is the part of *records* after the
        checkpoint, to replay.  When none loads, raises one naming the
        newest failure (for a data dir of another format, the format found).
        """
        failure = None
        for seq in reversed(self._seqs()):
            try:
                base, meta = load_base_snapshot(
                    self.directory / f"base-{seq}", mmap_mode=None, verify=True
                )
            except PersistenceError as exc:
                log_event(_LOGGER, "warning", "checkpoint.skipped", seq=seq, error=str(exc))
                failure = failure or exc
                continue
            tail = [record for record in records if record.seq > seq]
            self.checkpoint_seq = seq
            self.appends_since_checkpoint = len(tail)
            return base, meta, tail
        if failure is None:
            raise PersistenceError(f"{self.directory} holds no checkpoint to restore from")
        raise PersistenceError(f"no checkpoint of {self.directory} loads: {failure}")

    def checkpoint(self, base: OnexBase, stream_state: dict | None = None) -> dict:
        """Commit ``base-<seq>/`` at the current WAL position (module docstring).

        The WAL is fsynced first so the checkpoint never claims coverage
        the log cannot back.  Returns ``{seq, base_file, data_file}``,
        the files relative to the dataset's directory.
        """
        self.wal.sync_now()
        seq, own = self.wal.last_seq, self.checkpoint_seq
        path = self.directory / f"base-{seq}"
        entry = {
            "seq": seq,
            "base_file": f"{path.name}/{ARRAYS_FILE}",
            "data_file": f"{path.name}/{META_FILE}",
        }
        if seq == own:
            return entry
        started = time.monotonic()
        with span("wal.checkpoint", wal_seq=seq):
            shutil.rmtree(path, ignore_errors=True)
            base.save(path, stream=stream_state or {})
            # Only now that base-<seq>/ is durable are the others garbage.
            for other in set(self._seqs()) - {seq, own}:
                shutil.rmtree(self.directory / f"base-{other}", ignore_errors=True)
        _CHECKPOINTS_TOTAL.inc()
        _CHECKPOINT_SECONDS.set(time.monotonic() - started)
        freed = self.wal.compact(own) if own is not None else 0
        self.checkpoint_seq = seq
        self.appends_since_checkpoint = 0
        _WAL_SIZE.set(self.wal.size())
        log_event(
            _LOGGER,
            "info",
            "checkpoint.committed",
            dataset=self.name,
            wal_seq=seq,
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
        Crash debris (``*.tmp``) is swept first.
        """
        with self._lock:
            if name in self._datasets:
                raise PersistenceError(f"dataset {name!r} already attached")
            directory = self.data_dir / dataset_slug(name)
            directory.mkdir(parents=True, exist_ok=True)
            for debris in directory.glob("*.tmp"):
                if debris.is_dir():
                    shutil.rmtree(debris, ignore_errors=True)
                else:
                    debris.unlink(missing_ok=True)
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
