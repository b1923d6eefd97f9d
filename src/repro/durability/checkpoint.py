"""Atomic per-dataset checkpoints with a manifest commit point.

One dataset's durability directory holds::

    wal.log            the write-ahead log (repro.durability.wal)
    base-<seq>/        durable snapshot directory (repro.core.mmap_layout:
                       arrays.bin + meta.json) of the base *and its
                       dataset* as of WAL seq <seq>
    manifest.json      the commit point: list of checkpoint entries

A checkpoint is *committed* by the atomic replace of ``manifest.json`` —
until then the new ``base-<seq>/`` is invisible garbage a crash can
leave behind harmlessly (:func:`sweep_debris` removes it at the next
attach or checkpoint).  The manifest retains the TWO
newest entries: should the newest checkpoint's files turn out unreadable
(bitrot, torn by an unsynced disk), recovery falls back to the previous
entry and simply replays a longer WAL tail.  For the same reason the WAL
is compacted only up to the *previous* checkpoint's seq.  A committed
snapshot directory is never written to again and is deleted only after
the manifest that drops it has been committed.

Each entry names the snapshot's two files (``base_file`` its
``arrays.bin``, ``data_file`` its ``meta.json``, relative to the
durability directory) with a sha256 apiece — taken while writing — so
recovery can *prove* an entry valid before trusting it, plus the
monitor/event-seq snapshot and the stream counters: everything
:func:`repro.durability.recovery` needs to reconstruct the serving state
at that WAL position.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

from repro.core.base import OnexBase
from repro.core.mmap_layout import ARRAYS_FILE, META_FILE, load_base_snapshot
from repro.core.persist import atomic_json_write, sha256_file
from repro.exceptions import PersistenceError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.testing import faults

__all__ = [
    "latest_valid_checkpoint",
    "load_checkpoint",
    "read_manifest",
    "sweep_debris",
    "write_checkpoint",
]

MANIFEST_NAME = "manifest.json"
#: Format 2: entries point into ``base-<seq>/`` snapshot directories
#: (format 1 named a ``base-<seq>.npz`` + ``data-<seq>.npz`` pair).
MANIFEST_FORMAT = 2
KEEP_CHECKPOINTS = 2

_CHECKPOINTS_TOTAL = REGISTRY.counter(
    "onex_checkpoints_total", "Checkpoints committed",
)
_CHECKPOINT_SECONDS = REGISTRY.gauge(
    "onex_checkpoint_last_seconds", "Wall-clock duration of the last checkpoint"
)


def read_manifest(directory: str | Path) -> dict | None:
    """The parsed manifest of *directory*, or None when absent/garbled.

    A garbled manifest is treated as "no checkpoints" rather than an
    error: the WAL still holds the full history from seq 0 until the
    first compaction, and recovery reports the condition.  A readable
    manifest of another ``MANIFEST_FORMAT`` — a data dir written before
    checkpoints became snapshot directories — is refused by name.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict) or "checkpoints" not in manifest:
        return None
    if manifest.get("format") != MANIFEST_FORMAT:
        raise PersistenceError(
            f"checkpoint manifest {path} has format {manifest.get('format')!r}; "
            f"only format {MANIFEST_FORMAT} (snapshot-directory checkpoints) is "
            "read and .npz checkpoints are not migrated — reload the dataset "
            "into a fresh data dir"
        )
    return manifest


def _snapshot_dir(entry: dict) -> str:
    """Name of the snapshot directory a manifest *entry* points into."""
    return Path(entry["base_file"]).parts[0]


def sweep_debris(directory: str | Path) -> list[str]:
    """Remove what a crash between writing and committing left behind.

    Every ``*.tmp`` and every ``base-*`` that no committed manifest entry
    names (a later checkpoint at the same seq would collide with it).
    Nothing is touched while a manifest exists but cannot be read.
    Returns the removed names.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    if manifest is None and (directory / MANIFEST_NAME).exists():
        return []
    committed = {_snapshot_dir(c) for c in (manifest or {}).get("checkpoints", [])}
    removed = []
    for entry in sorted(directory.iterdir()):
        name = entry.name
        if name.endswith(".tmp") or (
            name.startswith("base-") and name not in committed
        ):
            if entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)
            else:
                entry.unlink(missing_ok=True)
            removed.append(name)
    return removed


def write_checkpoint(
    directory: str | Path,
    base: OnexBase,
    *,
    wal_seq: int,
    stream_state: dict | None = None,
) -> dict:
    """Capture *base* (and streaming state) as of *wal_seq*; commit it.

    The caller must have fsynced the WAL through *wal_seq* first (the
    manager does) so the checkpoint never claims coverage the log cannot
    back.  Returns the committed manifest entry.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    state = stream_state or {}
    with span("wal.checkpoint", wal_seq=wal_seq):
        sweep_debris(directory)
        manifest = read_manifest(directory) or {
            "format": MANIFEST_FORMAT,
            "dataset": base.raw_dataset.name,
            "checkpoints": [],
        }
        previous = manifest["checkpoints"]
        name = f"base-{wal_seq}"
        if name in map(_snapshot_dir, previous):
            # Re-checkpointing an unchanged WAL position: the committed
            # directory stays untouched until its successor is committed.
            name += ".1"
        digests = base.save(directory / name)
        entry = {
            "seq": int(wal_seq),
            "base_file": f"{name}/{ARRAYS_FILE}",
            "data_file": f"{name}/{META_FILE}",
            "base_sha256": digests[ARRAYS_FILE],
            "data_sha256": digests[META_FILE],
            "event_seq": int(state.get("event_seq", 0)),
            "monitors": list(state.get("monitors", [])),
            "stream_counters": dict(state.get("stream_counters", {})),
            "created": time.time(),
        }
        checkpoints = [c for c in previous if c["seq"] != entry["seq"]] + [entry]
        checkpoints.sort(key=lambda c: c["seq"])
        manifest["checkpoints"] = checkpoints[-KEEP_CHECKPOINTS:]
        manifest_path = directory / MANIFEST_NAME
        faults.fire("checkpoint.manifest", path=str(manifest_path))
        atomic_json_write(manifest_path, manifest)
        # Only after the manifest commit are superseded snapshots garbage.
        for old in previous:
            if old not in manifest["checkpoints"]:
                shutil.rmtree(directory / _snapshot_dir(old), ignore_errors=True)
    _CHECKPOINTS_TOTAL.inc()
    _CHECKPOINT_SECONDS.set(time.monotonic() - started)
    return entry


def latest_valid_checkpoint(directory: str | Path) -> dict | None:
    """Newest manifest entry whose artifacts exist and hash-verify.

    Falls back entry by entry (newest first); None when no entry
    survives — recovery then replays the WAL from seq 0.
    """
    manifest = read_manifest(directory)
    if manifest is None:
        return None
    directory = Path(directory)
    for entry in sorted(
        manifest["checkpoints"], key=lambda c: c["seq"], reverse=True
    ):
        try:
            if all(
                sha256_file(directory / entry[f"{k}_file"]) == entry[f"{k}_sha256"]
                for k in ("base", "data")
            ):
                return entry
        except OSError:
            continue  # a file is missing: fall back to the previous entry
    return None


def load_checkpoint(directory: str | Path, entry: dict) -> OnexBase:
    """Materialise one verified checkpoint entry: a private writable base
    over the snapshot's own dataset.  The bytes were hash-checked by
    :func:`latest_valid_checkpoint`; the load verifies nothing again."""
    path = Path(directory) / _snapshot_dir(entry)
    return load_base_snapshot(path, mmap_mode=None)[0]
