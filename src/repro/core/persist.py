"""Crash-safe filesystem primitives shared by persistence layers.

The snapshot writer (:mod:`repro.core.mmap_layout`) and the durability
subsystem (:mod:`repro.durability`) follow the same discipline when
making a file durable:

1. write the complete content to a same-directory temp file,
2. flush and ``fsync`` the temp file (its *bytes* are on stable storage),
3. ``os.replace`` it over the destination (atomic on POSIX),
4. ``fsync`` the containing **directory** so the rename itself — a
   directory-entry mutation — survives power loss.

Step 4 is the part that is easy to forget: without it a crash after the
rename can resurrect the old file (or no file) even though the data
blocks were synced, because the directory entry was still only in the
page cache.  ``fsync_dir`` is a no-op on platforms that cannot open
directories (Windows), where ``os.replace`` metadata ordering is the
filesystem's problem.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = [
    "atomic_json_write",
    "fsync_dir",
]


def fsync_dir(path: str | Path) -> None:
    """fsync the directory at *path* so renames inside it are durable."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return  # platforms without directory fds (e.g. Windows)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_json_write(path: str | Path, obj: object) -> None:
    """Durably replace *path* with *obj* as JSON (see module docstring)."""
    data = json.dumps(obj, indent=2, sort_keys=True, default=float).encode()
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass  # the original error matters; leftovers are swept as *.tmp
        raise
    fsync_dir(path.parent)
