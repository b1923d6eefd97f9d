"""Per-dataset checkpoints: a checkpoint is a durable snapshot directory.

One dataset's durability directory holds::

    wal.log        the write-ahead log (repro.durability.wal)
    base-<seq>/    durable snapshot directory (repro.core.mmap_layout:
                   arrays.bin + meta.json) of the base, its dataset and
                   its streaming state — monitors, event seq, stream
                   counters, in ``meta["stream"]`` — as of WAL seq <seq>

The snapshot writer's own commit is the checkpoint's: it writes
``base-<seq>.tmp/``, fsyncs it, renames it into place and fsyncs this
directory, so ``base-<seq>/`` is either absent or complete, and it
verifies itself (``meta.json`` against its digest, ``arrays.bin``
against its sha256, the structure against its fingerprint).  This module
has three jobs:

- :func:`write_checkpoint` writes ``base-<seq>/``;
- it then keeps the two newest, deleting older ones only once the new
  one is durable: should the newest turn out not to load (bitrot, torn
  by an unsynced disk), recovery falls back to the previous one and
  replays a longer WAL tail — which is why the WAL is compacted only up
  to the *older* retained checkpoint's seq;
- :func:`load_latest` names the newest directory that loads, loading it
  the way :meth:`OnexBase.load` does.

A crash before the rename leaves a ``*.tmp``, which :func:`sweep_debris`
removes at the next attach.  A data dir of another snapshot format is
refused by the reader's format message and nothing in it is deleted.
"""

from __future__ import annotations

import re
import shutil
import time
from pathlib import Path

from repro.core.base import OnexBase
from repro.core.mmap_layout import ARRAYS_FILE, META_FILE, load_base_snapshot
from repro.exceptions import PersistenceError
from repro.obs.logs import get_logger, log_event
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span

__all__ = [
    "checkpoint_seqs",
    "load_latest",
    "sweep_debris",
    "write_checkpoint",
]

KEEP_CHECKPOINTS = 2
_NAME = re.compile(r"base-([0-9]+)")

_LOGGER = get_logger("durability")
_CHECKPOINTS_TOTAL = REGISTRY.counter(
    "onex_checkpoints_total", "Checkpoints committed",
)
_CHECKPOINT_SECONDS = REGISTRY.gauge(
    "onex_checkpoint_last_seconds", "Wall-clock duration of the last checkpoint"
)


def checkpoint_seqs(directory: str | Path) -> list[int]:
    """WAL seqs of the ``base-<seq>/`` directories in *directory*, ascending."""
    return sorted(
        int(match.group(1))
        for entry in Path(directory).iterdir()
        if (match := _NAME.fullmatch(entry.name)) and entry.is_dir()
    )


def sweep_debris(directory: str | Path) -> list[str]:
    """Remove every ``*.tmp`` a crash mid-write left; returns their names."""
    removed = []
    for entry in sorted(Path(directory).glob("*.tmp")):
        if entry.is_dir():
            shutil.rmtree(entry, ignore_errors=True)
        else:
            entry.unlink(missing_ok=True)
        removed.append(entry.name)
    return removed


def _load(path: Path) -> tuple[OnexBase, dict]:
    """The one verified load of a checkpoint, as :meth:`OnexBase.load`."""
    return load_base_snapshot(path, mmap_mode=None, verify=True)


def write_checkpoint(
    directory: str | Path,
    base: OnexBase,
    *,
    wal_seq: int,
    stream_state: dict | None = None,
) -> dict:
    """Capture *base* (and streaming state) as ``base-<wal_seq>/``.

    The caller must have fsynced the WAL through *wal_seq* first (the
    manager does) so the checkpoint never claims coverage the log cannot
    back.  A ``base-<wal_seq>/`` that already loads is left untouched; one
    that does not (recovery fell past it) is replaced.  Returns the
    record ``{seq, base_file, data_file}``, the files relative to
    *directory*.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    path = directory / f"base-{int(wal_seq)}"
    with span("wal.checkpoint", wal_seq=wal_seq):
        if path.exists():
            try:
                _load(path)
            except PersistenceError:
                shutil.rmtree(path)
        if not path.exists():
            base.save(path, stream=stream_state or {})
        # Only now that base-<seq>/ is durable are older ones garbage.
        for seq in checkpoint_seqs(directory)[:-KEEP_CHECKPOINTS]:
            shutil.rmtree(directory / f"base-{seq}", ignore_errors=True)
    _CHECKPOINTS_TOTAL.inc()
    _CHECKPOINT_SECONDS.set(time.monotonic() - started)
    return {
        "seq": int(wal_seq),
        "base_file": f"{path.name}/{ARRAYS_FILE}",
        "data_file": f"{path.name}/{META_FILE}",
    }


def load_latest(directory: str | Path) -> tuple[int, OnexBase, dict]:
    """The newest checkpoint that loads: ``(seq, base, meta)``, verified.

    Falls back newest-first past every directory whose load raises
    :class:`PersistenceError`.  When none loads, raises one naming the
    newest failure (for a data dir of another format, the format found).
    """
    directory = Path(directory)
    failure = None
    for seq in reversed(checkpoint_seqs(directory)):
        try:
            base, meta = _load(directory / f"base-{seq}")
        except PersistenceError as exc:
            log_event(_LOGGER, "warning", "checkpoint.skipped", seq=seq, error=str(exc))
            failure = failure or exc
            continue
        return seq, base, meta
    if failure is None:
        raise PersistenceError(f"{directory} holds no checkpoint to restore from")
    raise PersistenceError(f"no checkpoint of {directory} loads: {failure}")
