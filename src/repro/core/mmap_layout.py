"""Raw, mmap-able on-disk layout of a built ONEX base.

The ``.npz`` archive (:meth:`OnexBase.save`) is compact but *copies* on
load: every array is decompressed into fresh private pages per process.
The worker pool needs the opposite trade — N processes serving the same
base should share one page-cache copy of the big stacks, and a new
epoch must be cheap to publish and cheap to attach.  This module
persists a base as a directory of **two files**::

    arrays.bin   every array of the base, C-contiguous, back to back,
                 each starting on a 64-byte boundary
    meta.json    format tag, build config, stats, dataset and series
                 names/metadata, normalisation bounds, indexed lengths,
                 per-length envelope radii, the structure fingerprint,
                 and ``arrays``: name -> [dtype, shape, byte offset]

so publishing is one sequential dump and attaching is one ``mmap(2)``
plus a view per directory entry — neither costs anything per group:

- every worker's member/centroid/summary stacks are views over the same
  physical pages (the kernel shares the page cache across processes);
- the mapping is write-protected, so an accidental in-place mutation in
  a worker raises instead of corrupting sibling processes;
- **groups are materialised on demand**: an attached bucket keeps the
  ``(M, 2)`` member-handle array and ``(G+1,)`` offsets as its source of
  truth and builds a ``SimilarityGroup`` only when a query indexes
  ``bucket.groups`` (see ``LengthBucket.attached``); counts, the
  structure fingerprint and this module's writer read the arrays.

Arrays in the directory (``<L>`` = subsequence length)::

    raw_<i>                     raw series values, one entry per series
    norm_<i>                    normalised values (only when the base
                                normalises; else raw_<i> is shared)
    len<L>_centroids            stacked group representatives
    len<L>_ed_radii             per-group ED_n radii
    len<L>_cheb_radii           per-group Chebyshev radii
    len<L>_members              (M, 2) int64 member handles
    len<L>_offsets              (G+1,) int64 group row offsets
    len<L>_member_matrix        stacked member values, group-contiguous
    len<L>_rep_env_lo/_rep_env_hi/_rep_endpoints/_rep_minmax
                                persisted representative summaries

Snapshots are written to a ``<dir>.tmp`` sibling and ``os.replace``\\ d
into place, so a crash mid-write never publishes a half-written
directory; :func:`clean_stale_snapshots` sweeps leftover ``*.tmp``
debris (and superseded epochs) at supervisor start.  Nothing outlives a
supervisor run — every start republishes — so there is one layout and
no migration: a directory of another ``SNAPSHOT_FORMAT`` is refused.

Loading with ``mmap_mode="r"`` produces a **read-only** base: the
mutation paths (:meth:`OnexBase.add_series`, streaming ingestion) raise
:class:`~repro.exceptions.ReadOnlyBaseError`.  ``mmap_mode=None`` reads
the file into private memory instead and yields an ordinary writable
base (real group lists).
"""

from __future__ import annotations

import json
import math
import os
import shutil
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

from repro.core import persist
from repro.core.base import (
    BaseStats,
    LengthBucket,
    LengthBuildStats,
    OnexBase,
    RepresentativeSummary,
)
from repro.core.config import BuildConfig
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.exceptions import PersistenceError
from repro.obs.logs import get_logger, log_event

__all__ = [
    "SNAPSHOT_FORMAT",
    "clean_stale_snapshots",
    "load_base_snapshot",
    "save_base_snapshot",
]

_LOG = get_logger("mmap")

#: Version tag written into ``meta.json`` and checked on load.  Format 2
#: replaced format 1's one ``.npy`` per array (300 files at the 50-series
#: floor, whose open/parse/map overhead was the whole attach) with the
#: single ``arrays.bin`` + directory in ``meta.json``.
SNAPSHOT_FORMAT = 2

_ARRAYS_FILE = "arrays.bin"
#: Every array starts on a cache-line boundary of the (page-aligned) map.
_ALIGN = 64


def _snapshot_arrays(base: OnexBase) -> Iterator[tuple[str, np.ndarray]]:
    """Every ``(name, array)`` of *base*'s snapshot, in file order."""
    raw = base.raw_dataset
    norm = base.dataset
    for i, series in enumerate(raw):
        yield f"raw_{i}", series.values
    if norm is not raw:
        for i, series in enumerate(norm):
            yield f"norm_{i}", series.values
    for length in base.lengths:
        bucket = base.bucket(length)
        prefix = f"len{length}"
        yield f"{prefix}_centroids", bucket.centroids
        yield f"{prefix}_ed_radii", bucket.ed_radii
        yield f"{prefix}_cheb_radii", bucket.cheb_radii
        yield f"{prefix}_members", bucket.member_handles
        yield f"{prefix}_offsets", bucket.member_offsets
        yield f"{prefix}_member_matrix", bucket.stacked_member_matrix(norm)
        summary = bucket.rep_summary
        yield f"{prefix}_rep_env_lo", summary.env_lo
        yield f"{prefix}_rep_env_hi", summary.env_hi
        yield f"{prefix}_rep_endpoints", summary.endpoints
        yield f"{prefix}_rep_minmax", summary.minmax


def save_base_snapshot(base: OnexBase, directory: str | Path) -> Path:
    """Persist *base* (and its dataset) as an mmap-able snapshot directory.

    Written atomically: everything lands in ``<directory>.tmp`` first and
    is renamed into place, so *directory* either does not exist or holds
    a complete snapshot.  *directory* must not already exist (publishers
    use a fresh epoch directory per publication).  Returns the final
    path; the structure fingerprint of what was written is in its
    ``meta.json``, where every attaching process reads it.
    """
    final = Path(directory)
    if final.exists():
        raise PersistenceError(f"snapshot directory {final} already exists")
    base._require_built()
    tmp = final.with_name(final.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        arrays: dict[str, list] = {}
        offset = 0
        with open(tmp / _ARRAYS_FILE, "wb") as fh:
            for name, array in _snapshot_arrays(base):
                array = np.ascontiguousarray(array)
                padding = -offset % _ALIGN
                fh.write(bytes(padding))
                offset += padding
                arrays[name] = [array.dtype.str, list(array.shape), offset]
                fh.write(array.data)
                offset += array.nbytes
        raw = base.raw_dataset
        stats = base.stats
        meta = {
            "format": SNAPSHOT_FORMAT,
            "config": {
                "similarity_threshold": base.config.similarity_threshold,
                "min_length": base.config.min_length,
                "max_length": base.config.max_length,
                "step": base.config.step,
                "normalize": base.config.normalize,
            },
            "stats": {
                "subsequences": stats.subsequences,
                "groups": stats.groups,
                "lengths": stats.lengths,
                "build_seconds": stats.build_seconds,
                "per_length": [s.as_dict() for s in stats.per_length],
            },
            "dataset": {
                "name": raw.name,
                "series": [
                    {"name": s.name, "metadata": dict(s.metadata)} for s in raw
                ],
            },
            "channels": base.channels,
            "norm_bounds": (
                list(base.normalization_bounds)
                if base.normalization_bounds is not None
                else None
            ),
            "normalized_stored": base.dataset is not raw,
            "lengths": list(base.lengths),
            "rep_radius": {
                str(length): base.bucket(length).rep_summary.radius
                for length in base.lengths
            },
            "structure_fingerprint": base.structure_fingerprint(),
            "arrays": arrays,
        }
        with open(tmp / "meta.json", "w") as fh:
            fh.write(json.dumps(meta, sort_keys=True))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    persist.fsync_dir(final.parent)
    return final


def _open_arrays(
    directory: Path, index: dict, mmap_mode: str | None
) -> Callable[[str], np.ndarray]:
    """Map (or, with ``mmap_mode=None``, read) ``arrays.bin``; returns the
    lookup ``name -> array`` over it, each array a view of the one buffer."""
    path = directory / _ARRAYS_FILE
    try:
        if mmap_mode is None:
            blob = np.fromfile(path, dtype=np.uint8)
        else:
            # Plain-ndarray view: the hundreds of slices below then skip
            # the memmap subclass's per-view bookkeeping.
            blob = np.memmap(path, dtype=np.uint8, mode=mmap_mode).view(np.ndarray)
    except (OSError, ValueError) as exc:
        raise PersistenceError(
            f"snapshot arrays {path} are missing or unreadable: {exc}"
        ) from exc

    def array(name: str) -> np.ndarray:
        try:
            dtype, shape, offset = index[name]
            dtype = np.dtype(dtype)
            stop = offset + dtype.itemsize * math.prod(shape)
            if not 0 <= offset <= stop <= blob.shape[0]:
                raise ValueError(f"bytes {offset}..{stop} of {blob.shape[0]}")
            return blob[offset:stop].view(dtype).reshape(shape)
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(
                f"snapshot array {name!r} of {path} is missing or "
                f"malformed: {exc!r}"
            ) from exc

    return array


def load_base_snapshot(
    directory: str | Path,
    mmap_mode: str | None = "r",
    *,
    verify: bool = False,
) -> tuple[OnexBase, dict]:
    """Open a snapshot directory; returns ``(base, meta)``.

    With the default ``mmap_mode="r"`` every array is a view of one
    write-protected memory map, the base is **read-only** (mutations
    raise) and its groups are materialised on demand; pass
    ``mmap_mode=None`` to read a private writable copy instead.
    *verify* recomputes the structure fingerprint against the stored one
    — it touches every page, so it is off by default (cold start stays
    an mmap) and turned on by tests and offline integrity checks.
    """
    directory = Path(directory)
    meta_path = directory / "meta.json"
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        raise PersistenceError(
            f"snapshot meta {meta_path} is missing or unreadable: {exc}"
        ) from exc
    if not isinstance(meta, dict) or meta.get("format") != SNAPSHOT_FORMAT:
        found = meta.get("format") if isinstance(meta, dict) else meta
        raise PersistenceError(
            f"snapshot {directory} has format {found!r}, "
            f"expected {SNAPSHOT_FORMAT}"
        )
    try:
        base = _attach(directory, meta, mmap_mode)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise PersistenceError(
            f"snapshot meta {meta_path} is malformed: {exc!r}"
        ) from exc
    if verify and base.structure_fingerprint() != meta["structure_fingerprint"]:
        raise PersistenceError(
            f"snapshot {directory} failed its structure fingerprint "
            "(truncated or tampered with)"
        )
    return base, meta


def _attach(directory: Path, meta: dict, mmap_mode: str | None) -> OnexBase:
    """Assemble the base *meta* describes over the arrays of *directory*."""
    array = _open_arrays(directory, meta["arrays"], mmap_mode)
    ds_meta = meta["dataset"]

    def dataset(prefix: str) -> TimeSeriesDataset:
        return TimeSeriesDataset(
            [
                TimeSeries._wrap(
                    entry["name"],
                    array(f"{prefix}_{i}"),
                    entry.get("metadata") or {},
                )
                for i, entry in enumerate(ds_meta["series"])
            ],
            name=ds_meta["name"],
        )

    raw_dataset = dataset("raw")
    norm_dataset = dataset("norm") if meta["normalized_stored"] else raw_dataset
    channels = int(meta.get("channels", 1))
    read_only = mmap_mode == "r"
    buckets: dict[int, LengthBucket] = {}
    for length in meta["lengths"]:
        length = int(length)
        prefix = f"len{length}"
        bucket = LengthBucket.attached(
            length,
            array(f"{prefix}_members"),
            array(f"{prefix}_offsets"),
            array(f"{prefix}_member_matrix"),
            array(f"{prefix}_centroids"),
            array(f"{prefix}_ed_radii"),
            array(f"{prefix}_cheb_radii"),
            channels=channels,
            writable=not read_only,
        )
        bucket.attach_rep_summary(
            RepresentativeSummary.attached(
                length,
                int(meta["rep_radius"][str(length)]),
                array(f"{prefix}_rep_env_lo"),
                array(f"{prefix}_rep_env_hi"),
                array(f"{prefix}_rep_endpoints"),
                array(f"{prefix}_rep_minmax"),
            )
        )
        buckets[length] = bucket
    stats_meta = meta["stats"]
    stats = BaseStats(
        subsequences=stats_meta["subsequences"],
        groups=stats_meta["groups"],
        lengths=stats_meta["lengths"],
        build_seconds=stats_meta["build_seconds"],
        per_length=tuple(
            LengthBuildStats(**entry)
            for entry in stats_meta.get("per_length", ())
        ),
    )
    norm_bounds = meta.get("norm_bounds")
    return OnexBase.from_attached(
        raw_dataset,
        norm_dataset,
        BuildConfig(**meta["config"]),
        tuple(norm_bounds) if norm_bounds is not None else None,
        buckets,
        stats,
        read_only=read_only,
    )


def clean_stale_snapshots(root: str | Path, *, keep_latest: int = 1) -> list[str]:
    """Sweep debris under snapshot root *root*; returns removed paths.

    Removes every ``*.tmp`` directory (a publish that crashed mid-write)
    and, per dataset directory, every ``epoch-<n>`` but the newest
    *keep_latest* — the shared-memory leftovers of a previous crashed
    run that nothing will ever map again.  Missing *root* is a no-op.
    """
    root = Path(root)
    removed: list[str] = []
    if not root.is_dir():
        return removed
    for dataset_dir in sorted(root.iterdir()):
        if not dataset_dir.is_dir():
            continue
        if dataset_dir.name.endswith(".tmp"):
            shutil.rmtree(dataset_dir, ignore_errors=True)
            removed.append(str(dataset_dir))
            continue
        epochs = []
        for entry in sorted(dataset_dir.iterdir()):
            if not entry.is_dir():
                continue
            if entry.name.endswith(".tmp"):
                shutil.rmtree(entry, ignore_errors=True)
                removed.append(str(entry))
            elif entry.name.startswith("epoch-"):
                try:
                    epochs.append((int(entry.name[len("epoch-") :]), entry))
                except ValueError:
                    continue
        epochs.sort()
        for _, entry in epochs[: max(0, len(epochs) - keep_latest)]:
            shutil.rmtree(entry, ignore_errors=True)
            removed.append(str(entry))
    if removed:
        log_event(_LOG, "info", "snapshot.cleaned", removed=len(removed))
    return removed
