"""The native kernels: ``_dtw_kernel.c``, compiled once per host, loaded with ctypes.

One library, four entry points, each bit-identical to a NumPy reference:
:func:`dtw_batch` runs where ``dtw._dtw_batch_diagonal`` — the one kernel
function the batch DTW entry points of :mod:`repro.distances.dtw` reach
— would run the NumPy kernel, :func:`assign_windows` where
``OnexBase.index_new_windows`` would run its ``_assign_windows`` loop,
:func:`rank_bounds` where ``RepresentativeTable.cheap_bounds`` would
compose its unbanded bound, and :func:`fast_walk` where
``QueryProcessor._walk`` would walk a fast query.  All run when
:data:`KERNEL` loaded, the references otherwise: load success alone
decides — no flag, environment variable or config field (DESIGN.md §1) —
and one test substitution, ``KERNEL = None``, switches all four.
:func:`backend` names the one that runs, for ``/health`` and
``onex_server_info``.

On first import the C source is compiled with
``gcc -O3 -ffp-contract=off -shared -fPIC`` into a content-addressed
cache — ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``, else a private
per-user directory under :func:`tempfile.gettempdir` — named by the
sha256 of the source, the flags, the compiler path and the machine type,
so an edited source or another compiler never loads a stale library.
The compiler writes a temporary file that is renamed into place, so
processes racing the first compile each load a complete library; nothing
is written beside the source.  Once a library is bound, the other
libraries in its cache directory are removed.  No compiler, no writable
cache directory, a failed compile or a library that will not load or
lacks an entry point each leave :data:`KERNEL` ``None``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Literal

import numpy as np

__all__ = ["KERNEL", "assign_windows", "backend", "dtw_batch", "fast_walk", "rank_bounds"]

_SOURCE = Path(__file__).with_name("_dtw_kernel.c")
#: No ``-march=native`` (the cache may be shared across hosts of one
#: machine type) and no ``-ffast-math``; ``-ffp-contract=off`` keeps
#: ``d * d + best`` from fusing into an FMA, which would round
#: differently from NumPy on the squared ground.
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_TRACKS = {None: 0, "length": 1, "path": 2}
_DTW_ARGTYPES = (
    ctypes.c_void_p,  # x
    ctypes.c_int64,  # x_stride
    ctypes.c_void_p,  # rows
    ctypes.c_int64,  # width
    ctypes.c_void_p,  # lens
    ctypes.c_int64,  # g
    ctypes.c_int64,  # n
    ctypes.c_int64,  # m
    ctypes.c_int64,  # channels
    ctypes.c_int64,  # window
    ctypes.c_int32,  # squared
    ctypes.c_int32,  # track
    ctypes.c_void_p,  # dist
    ctypes.c_void_p,  # plens
    ctypes.c_void_p,  # path_i
    ctypes.c_void_p,  # path_j
    ctypes.c_int64,  # path_width
)
_ASSIGN_ARGTYPES = (
    ctypes.c_void_p,  # values
    ctypes.c_int64,  # channels
    ctypes.c_int64,  # step
    ctypes.c_int64,  # segments
    ctypes.c_void_p,  # plan: lengths, firsts, counts, groups
    ctypes.c_void_p,  # stores: centroids, then centroid means
    ctypes.c_void_p,  # means
    ctypes.c_double,  # slack
    ctypes.c_double,  # radius
    ctypes.c_double,  # margin
    ctypes.c_void_p,  # owners
    ctypes.c_void_p,  # created
    ctypes.c_void_p,  # order
    ctypes.c_void_p,  # evaluated
)
_RANK_ARGTYPES = (
    *(ctypes.c_void_p,) * 3,  # query, sorted query, its n + 1 prefix sums
    ctypes.c_int64,  # n
    ctypes.c_double,  # sum of the query's magnitudes
    *(ctypes.c_void_p,) * 5,  # endpoints, lo, hi, lengths, rows
    ctypes.c_int64,  # g
    ctypes.c_void_p,  # out
)
_WALK_ARGTYPES = (
    ctypes.c_void_p, ctypes.c_int64,  # query, n
    *(ctypes.c_void_p,) * 4, ctypes.c_int64,  # keys, lengths, gids, rows; g
    ctypes.c_void_p, *(ctypes.c_int64,) * 4,  # stores; top, k, groups, window
    *(ctypes.c_void_p,) * 2,  # chosen, tally
)


def _cache_dirs() -> list[Path]:
    xdg = os.environ.get("XDG_CACHE_HOME")
    home = Path(xdg) if xdg else Path.home() / ".cache"
    return [home / "repro", Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"]


def _bind(path: Path) -> ctypes.CDLL:
    """The library at *path* with every entry point typed; a missing one
    raises ``AttributeError``, so none is used."""
    library = ctypes.CDLL(str(path))
    for function, argtypes in (
        (library.dtw_batch, _DTW_ARGTYPES),
        (library.assign_windows, _ASSIGN_ARGTYPES),
        (library.rank_bounds, _RANK_ARGTYPES),
        (library.fast_walk, _WALK_ARGTYPES),
    ):
        function.argtypes = argtypes
        function.restype = ctypes.c_int
    return library


def _compile(compiler: str, path: Path) -> None:
    """Build the library at *path* via a temporary file and an atomic rename.

    The file ends with the sha256 of everything before it (the dynamic
    loader ignores trailing bytes), so :func:`_intact` can tell a complete
    library from a truncated one before ``dlopen`` maps it: mapping a
    truncated library kills the process with ``SIGBUS``.
    """
    fd, tmp = tempfile.mkstemp(prefix=path.name, suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *_FLAGS, "-o", tmp, str(_SOURCE)],
            cwd=path.parent,
            check=True,
            capture_output=True,
            timeout=120,
        )
        body = Path(tmp).read_bytes()
        Path(tmp).write_bytes(body + hashlib.sha256(body).digest())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _intact(path: Path) -> bool:
    data = path.read_bytes()
    return hashlib.sha256(data[:-32]).digest() == data[-32:]


def _library_name(compiler: str) -> str:
    """The cache file name: a digest of everything the library depends on."""
    parts = [_SOURCE.read_bytes(), " ".join(_FLAGS).encode()]
    parts += [compiler.encode(), platform.machine().encode()]
    digest = hashlib.sha256(b"\0".join(parts)).hexdigest()
    return f"dtw_kernel-{digest[:32]}.so"


def _load() -> ctypes.CDLL | None:
    """The compiled library, from the first cache directory that yields one."""
    compiler = shutil.which("gcc")
    if compiler is None:
        return None
    try:
        name = _library_name(compiler)
        directories = _cache_dirs()
    except (OSError, RuntimeError, AttributeError):
        return None  # no source beside this file, no home, no os.getuid
    for directory in directories:
        path = directory / name
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            if directory.parent == Path(tempfile.gettempdir()):
                # A shared temp directory: load only from one that is ours.
                info = directory.stat()
                if info.st_uid != os.getuid() or info.st_mode & 0o022:
                    continue
            if not (path.exists() and _intact(path)):
                _compile(compiler, path)
            library = _bind(path)
            # Every other library here is an edited source's leftover (a
            # process still using one keeps its mapping); a ``*.tmp`` may
            # be another process's compile in flight, so it stays.
            for stale in directory.glob("dtw_kernel-*.so"):
                if stale != path:
                    stale.unlink(missing_ok=True)
            return library
        except (OSError, AttributeError, subprocess.SubprocessError):
            continue
    return None


#: The loaded library, or ``None``: the one answer to "which kernels
#: run" (tests substitute ``None`` to run every NumPy reference).
KERNEL = _load()


def backend() -> Literal["native", "numpy"]:
    """``"native"`` when the compiled library loaded, else ``"numpy"``."""
    return "numpy" if KERNEL is None else "native"


def _address(array: np.ndarray | None) -> int | None:
    return None if array is None else array.ctypes.data


def dtw_batch(
    a: np.ndarray,
    mat: np.ndarray,
    lens: np.ndarray | None,
    window: int | None,
    squared: bool,
    track: Literal["length", "path"] | None,
) -> np.ndarray | tuple[np.ndarray, object]:
    """``_dtw_batch_diagonal``'s contract in C; inputs already validated.

    A ``(g, m, channels)`` *mat* takes ``(n, channels)`` queries, as the
    NumPy kernel does.  Returns the distances; with ``track="length"``
    also the path lengths; with ``track="path"`` also ``(path_lengths, i,
    j)``, the ``-1``-padded path cells of
    :class:`~repro.distances.dtw.DtwPathBatch`.
    """
    a = np.ascontiguousarray(a)
    mat = np.ascontiguousarray(mat)
    g, width = mat.shape[:2]
    channels = mat.shape[2] if mat.ndim == 3 else 1
    paired = a.ndim == mat.ndim
    n = a.shape[1] if paired else a.shape[0]
    m = width if lens is None else int(lens.max())
    if lens is not None:
        lens = np.ascontiguousarray(lens)
    dist = np.empty(g)
    plens = None if track is None else np.empty(g, dtype=np.int64)
    i = j = None
    if track == "path":
        i = np.full((g, n + m - 1), -1, dtype=np.int64)
        j = np.full((g, n + m - 1), -1, dtype=np.int64)
    status = KERNEL.dtw_batch(
        a.ctypes.data,
        n * channels if paired else 0,
        mat.ctypes.data,
        width * channels,
        _address(lens),
        g,
        n,
        m,
        channels,
        -1 if window is None else int(window),
        squared,
        _TRACKS[track],
        dist.ctypes.data,
        _address(plens),
        _address(i),
        _address(j),
        n + m - 1,
    )
    if status:
        raise MemoryError(f"no scratch for a DTW batch of {g} x ({n}, {m})")
    if track is None:
        return dist
    return dist, (plens if track == "length" else (plens, i, j))


def assign_windows(
    values: np.ndarray,
    step: int,
    plan: list[tuple[int, int, int]],
    stacks: list[tuple[np.ndarray, np.ndarray]],
    means: np.ndarray,
    slack: float,
    radius: float,
    margin: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``OnexBase._assign_windows``'s contract in C, every length in one
    call; inputs already consistent.  Per length, *plan* holds ``(length,
    first, count)`` — *count* windows at *first*, *first* + *step*, ... of
    the ``(n,)`` or ``(n, channels)`` *values*, read in place, their
    *means* after the previous length's — and *stacks* the centroid stack
    and its row means.  Returns ``(groups, created, order, evaluated)``.
    """
    # Every array the C reads is held here until it returns.
    values = np.ascontiguousarray(values, dtype=np.float64)
    means = np.ascontiguousarray(means, dtype=np.float64)
    arrays = [np.ascontiguousarray(a) for pair in zip(*stacks) for a in pair]
    stores = np.array([a.ctypes.data for a in arrays], dtype=np.uintp)
    table = np.array([*zip(*plan), [c.shape[0] for c, _ in stacks]], dtype=np.int64)
    total = means.shape[0]
    groups, order = np.empty((2, total), dtype=np.int64)
    created = np.empty(total, dtype=np.bool_)
    evaluated = np.zeros(1, dtype=np.int64)
    status = KERNEL.assign_windows(
        values.ctypes.data,
        1 if values.ndim == 1 else values.shape[1],
        step,
        len(plan),
        table.ctypes.data,
        stores.ctypes.data,
        means.ctypes.data,
        slack,
        radius,
        margin,
        groups.ctypes.data,
        created.ctypes.data,
        order.ctypes.data,
        evaluated.ctypes.data,
    )
    if status:
        raise MemoryError(f"no scratch to assign {total} windows")
    return groups, created, order, int(evaluated[0])


def rank_bounds(
    q: np.ndarray, columns: tuple[np.ndarray, ...], rows: np.ndarray | None
) -> np.ndarray | None:
    """``RepresentativeTable.cheap_bounds``'s unbanded bound in C for the
    table *rows* (``None``: every row), reading its ``(endpoints, lo, hi,
    lengths)`` *columns* in place; *q* already validated.  The sort, prefix
    sums and magnitude sum of *q* are ``_band_breach``'s, in NumPy.
    ``None`` where a NaN met the C's selects (a NaN table value, or an
    overflowing query's ``inf - inf``): the NumPy composition decides those."""
    # Every array the C reads is held here until it returns.
    q, *columns = (np.ascontiguousarray(a) for a in (q, *columns))
    rows = None if rows is None else np.ascontiguousarray(rows, dtype=np.int64)
    pts = np.sort(q)
    sums = np.concatenate(([0.0], np.cumsum(pts)))
    out = np.empty(columns[0].shape[0] if rows is None else rows.shape[0])
    status = KERNEL.rank_bounds(
        *(a.ctypes.data for a in (q, pts, sums)), q.shape[0], np.abs(pts).sum(),
        *(_address(a) for a in (*columns, rows)), out.shape[0], out.ctypes.data,
    )
    return None if status else out


def fast_walk(
    q: np.ndarray, keys: np.ndarray, columns: tuple, stores: list, k: int, groups: int,
    window: int | None,
) -> tuple[np.ndarray, int] | None:
    """``QueryProcessor._walk``'s fast rule in C: the table rows it refines,
    in order, and how many representatives it verified, from its *keys*,
    ``(lengths, gids, rows)`` *columns* and *stores*, each length's
    ``(length, centroids address, member counts address)``.  ``None`` where
    a NaN key or a non-finite centroid met the walk: the Python walk
    decides those."""
    # Every array the C reads is held here until it returns.
    q, *arrays = [None if a is None else np.ascontiguousarray(a) for a in (q, keys, *columns)]
    top = max(length for length, _, _ in stores) + 1
    table = np.zeros(2 * top, dtype=np.uintp)
    for length, centroids, counts in stores:
        table[length], table[top + length] = centroids, counts
    chosen, tally = np.empty(keys.shape[0], dtype=np.int64), np.zeros(2, dtype=np.int64)
    status = KERNEL.fast_walk(
        q.ctypes.data, q.shape[0], *map(_address, arrays), keys.shape[0], table.ctypes.data,
        top, k, groups, -1 if window is None else window, chosen.ctypes.data, tally.ctypes.data,
    )
    if status < 0:
        raise MemoryError(f"no scratch for a fast walk over {keys.shape[0]} representatives")
    return None if status else (chosen[: tally[0]], int(tally[1]))
