"""The on-disk layout of a built ONEX base — the only one.

:meth:`OnexBase.save`, the durability checkpoints and the worker pool's
epochs all persist a base with this module's one writer and read it back
with its one reader; nothing else in the package knows a file name or a
byte offset of a stored base.  A snapshot is a directory of **two
files**::

    arrays.bin   every array of the base and its dataset, C-contiguous,
                 back to back, each starting on a 64-byte boundary
    meta.json    format tag, build config, stats (the reader takes
                 only ``build_seconds``: a base reads its counts off
                 its buckets), dataset and series names/metadata,
                 normalisation bounds, indexed lengths, the structure
                 fingerprint, ``arrays``: name -> [dtype, shape, byte
                 offset], ``arrays_sha256`` (durable snapshots only),
                 ``stream`` (a checkpoint's monitors and event seq;
                 else null) and ``meta_sha256``, the digest of every
                 other key

so writing is one sequential dump and attaching is one ``mmap(2)`` (or
one read) plus a view per directory entry — neither costs anything per
group:

- N pool workers' member and centroid stacks are views over the same
  physical pages (the kernel shares the page cache across processes);
- the mapping is write-protected, so an accidental in-place mutation in
  a worker raises instead of corrupting sibling processes;
- **groups are materialised on demand**: a bucket's arrays — here the
  ``(M, 2)`` member handles and ``(M,)`` owners — are its only stored
  state and a ``SimilarityGroup`` is built only when something indexes
  ``bucket.groups`` (see ``LengthBucket``); counts, the structure
  fingerprint and this module's writer read the arrays.

Arrays in the directory (``<L>`` = subsequence length)::

    raw_<i>                     raw series values, one entry per series
    norm_<i>                    normalised values (only when the base
                                normalises; else raw_<i> is shared)
    len<L>_centroids            stacked group representatives
    len<L>_ed_radii             per-group ED_n radii
    len<L>_cheb_radii           per-group Chebyshev radii
    len<L>_members              (M, 2) int64 member handles
    len<L>_owners               (M,) int64 owning group of every member
    len<L>_member_matrix        stacked member values

The three member arrays hold their rows in the bucket's store order, the
one row order it has in memory, so a snapshot is written without a
gather and attaches to the rows its writer held.  Nothing derivable
from a centroid row is stored (the rank stage's table is rebuilt from
the centroid stacks on first use), and the reader looks up these names
only: a directory entry or meta key under any other name is never
dereferenced.

Every snapshot is written to a ``<dir>.tmp`` sibling and renamed into
place with ``os.replace``, so the target either does not exist or is
complete; an existing target is refused, not replaced (a directory
cannot be swapped atomically — never touching the old one is what keeps
it intact through a crash).  The two kinds of write differ in one
keyword of the one writer:

- an **epoch snapshot** (:func:`save_base_snapshot`, the pool's full
  publications) dies with its supervisor, so ``arrays.bin`` is neither
  fsynced nor hashed; :func:`clean_stale_snapshots` sweeps leftovers at
  supervisor start.  Not every pool epoch is one: most are tails that
  travel in the pool's frames (``OnexBase.tail``) and are applied to the
  snapshot a worker already maps, whose touched buckets then become
  private copies;
- a **durable** snapshot (:meth:`OnexBase.save`, which checkpoints call
  too) fsyncs both files and both directories and records the sha256 of
  ``arrays.bin``, hashed while writing.  Once the parent directory's
  fsync returns the snapshot is committed: a checkpoint is nothing more
  (:mod:`repro.durability.manager`).

With ``verify=True`` (:meth:`OnexBase.load`, checkpoint recovery) a
snapshot proves itself whole: ``meta.json`` against its own digest,
``arrays.bin`` against its recorded sha256 and the assembled structure
against the stored fingerprint.  Unverified (an attaching pool worker)
the reader still bounds-checks every entry it dereferences.

There is one format and no migration: a ``.npz`` archive (the removed
formats v2–v5) or a directory of another ``SNAPSHOT_FORMAT`` is refused
with a :class:`PersistenceError` naming what was found.  An owner
outside its bucket's groups is refused the same way at attach.

``mmap_mode="r"`` yields a **read-only** base (mutation paths raise
:class:`~repro.exceptions.ReadOnlyBaseError`); ``mmap_mode=None`` reads
the file into private memory and yields an ordinary writable base — what
:meth:`OnexBase.load` and checkpoint recovery return.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from collections.abc import Callable, Iterator
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core import persist
from repro.core.base import LengthBucket, OnexBase
from repro.core.config import BuildConfig
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.exceptions import OnexError, PersistenceError
from repro.obs.logs import get_logger, log_event
from repro.testing import faults

__all__ = [
    "ARRAYS_FILE",
    "META_FILE",
    "SNAPSHOT_FORMAT",
    "clean_stale_snapshots",
    "load_base_snapshot",
    "save_base_snapshot",
]

_LOG = get_logger("mmap")

#: Version tag written into ``meta.json`` and checked on load.  Format 2
#: replaced format 1's one ``.npy`` per array (300 files at the 50-series
#: floor, whose open/parse/map overhead was the whole attach) with the
#: single ``arrays.bin`` + directory in ``meta.json``; format 3 stores
#: each member's owner in place of group offsets over group-sorted rows;
#: format 4 adds ``meta_sha256`` and a checkpoint's ``stream`` state.
SNAPSHOT_FORMAT = 4

ARRAYS_FILE = "arrays.bin"
META_FILE = "meta.json"
#: Every array starts on a cache-line boundary of the (page-aligned) map.
_ALIGN = 64


#: Per-length arrays, in file order and in the positional order of
#: ``LengthBucket``.
_BUCKET_ARRAYS = (
    "members",
    "owners",
    "member_matrix",
    "centroids",
    "ed_radii",
    "cheb_radii",
)
#: The ``BuildConfig`` fields that describe the base (not how it was built).
_CONFIG_FIELDS = (
    "similarity_threshold", "min_length", "max_length", "step", "normalize",
)


def _snapshot_arrays(base: OnexBase) -> Iterator[tuple[str, np.ndarray]]:
    """Every ``(name, array)`` of *base*'s snapshot, in file order."""
    raw = base.raw_dataset
    norm = base.dataset
    for i, series in enumerate(raw):
        yield f"raw_{i}", series.values
    if norm is not raw:
        for i, series in enumerate(norm):
            yield f"norm_{i}", series.values
    for bucket in base.buckets():
        arrays = (
            *bucket.store_rows(),
            bucket.member_matrix,
            bucket.centroids,
            bucket.ed_radii,
            bucket.cheb_radii,
        )
        for name, array in zip(_BUCKET_ARRAYS, arrays):
            yield f"len{bucket.length}_{name}", array


def save_base_snapshot(base: OnexBase, directory: str | Path) -> Path:
    """Publish *base* (and its dataset) as an epoch snapshot directory.

    *directory* must not exist yet (publishers use a fresh epoch
    directory per publication) and afterwards holds a complete snapshot;
    ``arrays.bin`` is neither fsynced nor hashed.  Returns the final path;
    the structure fingerprint of what was written is in its
    ``meta.json``, where every attaching process reads it.
    """
    _write_snapshot(base, directory, durable=False)
    return Path(directory)


def _write_snapshot(
    base: OnexBase,
    directory: str | Path,
    *,
    durable: bool,
    stream: dict | None = None,
) -> None:
    """The one writer (see the module docstring for what *durable* adds);
    *stream* is stored as ``meta["stream"]``."""
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
        digest = hashlib.sha256() if durable else None
        with open(tmp / ARRAYS_FILE, "wb") as fh:
            for name, array in _snapshot_arrays(base):
                array = np.ascontiguousarray(array)
                padding = bytes(-offset % _ALIGN)
                fh.write(padding)
                fh.write(array.data)
                if digest is not None:
                    digest.update(padding)
                    digest.update(array.data)
                offset += len(padding)
                arrays[name] = [array.dtype.str, list(array.shape), offset]
                offset += array.nbytes
            if digest is not None:
                fh.flush()
                os.fsync(fh.fileno())
        raw = base.raw_dataset
        bounds = base.normalization_bounds
        meta = {
            "format": SNAPSHOT_FORMAT,
            "config": {f: getattr(base.config, f) for f in _CONFIG_FIELDS},
            "stats": asdict(base.stats),
            "dataset": {
                "name": raw.name,
                "series": [
                    {"name": s.name, "metadata": dict(s.metadata)} for s in raw
                ],
            },
            "channels": base.channels,
            "norm_bounds": list(bounds) if bounds is not None else None,
            "normalized_stored": base.dataset is not raw,
            "lengths": base.lengths,
            "structure_fingerprint": base.structure_fingerprint(),
            "arrays": arrays,
            "arrays_sha256": digest.hexdigest() if digest is not None else None,
            "stream": stream,
        }
        # Digest the form a reader parses back (JSON-native, string keys).
        meta = json.loads(json.dumps(meta, default=float))
        meta["meta_sha256"] = _meta_digest(meta)
        with open(tmp / META_FILE, "wb") as fh:
            fh.write(json.dumps(meta, sort_keys=True).encode())
            fh.flush()
            os.fsync(fh.fileno())
        if durable:
            persist.fsync_dir(tmp)
        faults.fire("persist.save", path=str(tmp / ARRAYS_FILE))
        os.replace(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    # The rename is atomic but not yet durable: the directory entry lives
    # in the page cache until the parent directory itself is fsynced.
    faults.fire("persist.rename", path=str(final))
    persist.fsync_dir(final.parent)


def _meta_digest(meta: dict) -> str:
    """sha256 of every key of a parsed ``meta.json`` but ``meta_sha256``."""
    body = {key: value for key, value in meta.items() if key != "meta_sha256"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _open_arrays(
    directory: Path, meta: dict, mmap_mode: str | None, verify: bool
) -> Callable[[str], np.ndarray]:
    """Map (or, with ``mmap_mode=None``, read) ``arrays.bin``; returns the
    lookup ``name -> array`` over it, each array a view of the one buffer.
    *verify* first checks the whole file against the recorded sha256."""
    path = directory / ARRAYS_FILE
    index = meta["arrays"]
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
    recorded = meta.get("arrays_sha256")
    if verify and recorded is not None and hashlib.sha256(blob).hexdigest() != recorded:
        raise PersistenceError(
            f"snapshot arrays {path} failed their sha256 (truncated or tampered with)"
        )

    def array(name: str) -> np.ndarray:
        try:
            dtype, shape, offset = index[name]
            dtype = np.dtype(dtype)
            if dtype.kind not in "fiu":  # no object/void/str from a hostile meta
                raise ValueError(f"dtype {dtype} is not numeric")
            if min(shape, default=0) < 0:
                raise ValueError(f"negative dimension in shape {shape}")
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
    *verify* checks ``meta.json`` against its own digest, ``arrays.bin``
    against the sha256 a durable write recorded, and the structure it
    assembles against the stored fingerprint — it touches every page, so
    it is off by default (epoch attach stays an mmap) and on for
    :meth:`OnexBase.load` and checkpoint recovery, whose returned
    ``meta["structure_fingerprint"]`` is then the verified one.
    Anything but a readable snapshot of this ``SNAPSHOT_FORMAT`` raises
    :class:`PersistenceError`.
    """
    directory = Path(directory)
    if directory.is_file():
        raise PersistenceError(
            f"{directory} is a file, not a snapshot directory: the .npz "
            "archive formats (v2-v5) are no longer read and there is no "
            "migration — rebuild the base and save it to a fresh path"
        )
    meta_path = directory / META_FILE
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
            f"snapshot {directory} has format {found!r}; only format "
            f"{SNAPSHOT_FORMAT} is read (no migration: rebuild the base)"
        )
    if verify and meta.get("meta_sha256") != _meta_digest(meta):
        raise PersistenceError(
            f"snapshot meta {meta_path} failed its digest (tampered with)"
        )
    try:
        base = _attach(directory, meta, mmap_mode, verify)
        fingerprint = meta["structure_fingerprint"]
    except PersistenceError:
        raise
    except (
        OnexError,
        KeyError,
        TypeError,
        ValueError,
        AttributeError,
        IndexError,
        OverflowError,
    ) as exc:
        raise PersistenceError(
            f"snapshot meta {meta_path} is malformed: {exc!r}"
        ) from exc
    if verify and base.structure_fingerprint() != fingerprint:
        raise PersistenceError(
            f"snapshot {directory} failed its structure fingerprint "
            "(truncated or tampered with)"
        )
    return base, meta


def _attach(
    directory: Path, meta: dict, mmap_mode: str | None, verify: bool
) -> OnexBase:
    """Assemble the base *meta* describes over the arrays of *directory*."""
    array = _open_arrays(directory, meta, mmap_mode, verify)
    ds_meta = meta["dataset"]

    def series(name: str, entry: dict) -> TimeSeries:
        values = array(name)
        values.flags.writeable = False  # as TimeSeries() guarantees, copy or not
        return TimeSeries._wrap(entry["name"], values, entry.get("metadata") or {})

    def dataset(prefix: str) -> TimeSeriesDataset:
        return TimeSeriesDataset(
            [series(f"{prefix}_{i}", e) for i, e in enumerate(ds_meta["series"])],
            name=ds_meta["name"],
        )

    raw_dataset = dataset("raw")
    norm_dataset = dataset("norm") if meta["normalized_stored"] else raw_dataset
    channels = int(meta.get("channels", 1))
    read_only = mmap_mode == "r"
    buckets: dict[int, LengthBucket] = {}
    for length in meta["lengths"]:
        length = int(length)
        stacks = [array(f"len{length}_{name}") for name in _BUCKET_ARRAYS]
        buckets[length] = LengthBucket(
            length, *stacks, channels=channels, writable=not read_only
        )
    stats = meta["stats"]
    norm_bounds = meta.get("norm_bounds")
    return OnexBase.from_attached(
        raw_dataset,
        norm_dataset,
        BuildConfig(**meta["config"]),
        tuple(norm_bounds) if norm_bounds is not None else None,
        buckets,
        float(stats["build_seconds"]),
        read_only=read_only,
    )


def clean_stale_snapshots(root: str | Path) -> list[str]:
    """Sweep debris under snapshot root *root*; returns removed paths.

    Removes every ``*.tmp`` directory (a publish that crashed mid-write)
    and every ``epoch-<n>`` — the shared-memory leftovers of a previous
    crashed run that nothing will ever map again.  Missing *root* is a
    no-op.
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
        for entry in sorted(dataset_dir.iterdir()):
            epoch = entry.name[len("epoch-") :]
            if entry.is_dir() and (
                entry.name.endswith(".tmp")
                or (entry.name.startswith("epoch-") and epoch.isdigit())
            ):
                shutil.rmtree(entry, ignore_errors=True)
                removed.append(str(entry))
    if removed:
        log_event(_LOG, "info", "snapshot.cleaned", removed=len(removed))
    return removed
