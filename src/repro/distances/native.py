"""The native DTW kernel: ``_dtw_kernel.c``, compiled once per host, loaded with ctypes.

The batch DTW entry points of :mod:`repro.distances.dtw` reach one
kernel function, ``_dtw_batch_diagonal``; it runs :func:`dtw_batch` when
:data:`KERNEL` loaded and the NumPy kernel otherwise.  Which one runs is
decided by load success alone — no flag, environment variable or config
field selects it (DESIGN.md §1) — and the two are bit-identical: the
kernel property suite runs against both.  :func:`backend` names the one
that runs, for ``/health`` and ``onex_server_info``.

On first import the C source is compiled with
``gcc -O3 -ffp-contract=off -shared -fPIC`` into a content-addressed
cache — ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``, else a private
per-user directory under :func:`tempfile.gettempdir` — named by the
sha256 of the source, the flags, the compiler path and the machine type,
so an edited source or another compiler never loads a stale library.
The compiler writes a temporary file that is renamed into place, so
processes racing the first compile each load a complete library; nothing
is written beside the source.  No compiler, no writable cache directory,
a failed compile or a library that will not load each leave
:data:`KERNEL` ``None``.
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

__all__ = ["KERNEL", "backend", "dtw_batch"]

_SOURCE = Path(__file__).with_name("_dtw_kernel.c")
#: No ``-march=native`` (the cache may be shared across hosts of one
#: machine type) and no ``-ffast-math``; ``-ffp-contract=off`` keeps
#: ``d * d + best`` from fusing into an FMA, which would round
#: differently from NumPy on the squared ground.
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_TRACKS = {None: 0, "length": 1, "path": 2}
_ARGTYPES = (
    ctypes.c_void_p,  # x
    ctypes.c_int64,  # x_stride
    ctypes.c_void_p,  # rows
    ctypes.c_int64,  # width
    ctypes.c_void_p,  # lens
    ctypes.c_int64,  # g
    ctypes.c_int64,  # n
    ctypes.c_int64,  # m
    ctypes.c_int64,  # window
    ctypes.c_int32,  # squared
    ctypes.c_int32,  # track
    ctypes.c_void_p,  # dist
    ctypes.c_void_p,  # plens
    ctypes.c_void_p,  # path_i
    ctypes.c_void_p,  # path_j
    ctypes.c_int64,  # path_width
)


def _cache_dirs() -> list[Path]:
    xdg = os.environ.get("XDG_CACHE_HOME")
    home = Path(xdg) if xdg else Path.home() / ".cache"
    return [home / "repro", Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"]


def _bind(path: Path) -> ctypes._CFuncPtr:
    kernel = ctypes.CDLL(str(path)).dtw_batch
    kernel.argtypes = _ARGTYPES
    kernel.restype = ctypes.c_int
    return kernel


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


def _load() -> ctypes._CFuncPtr | None:
    """The compiled kernel, from the first cache directory that yields one."""
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
            return _bind(path)
        except (OSError, AttributeError, subprocess.SubprocessError):
            continue
    return None


#: The loaded ``dtw_batch`` C function, or ``None``: the one answer to
#: "which kernel runs" (tests substitute ``None`` to run the NumPy one).
KERNEL = _load()


def backend() -> Literal["native", "numpy"]:
    """``"native"`` when the compiled kernel loaded, else ``"numpy"``."""
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

    Returns the distances; with ``track="length"`` also the path lengths;
    with ``track="path"`` also ``(path_lengths, i, j)``, the ``-1``-padded
    path cells of :class:`~repro.distances.dtw.DtwPathBatch`.
    """
    a = np.ascontiguousarray(a)
    mat = np.ascontiguousarray(mat)
    g, width = mat.shape
    n = a.shape[-1]
    m = width if lens is None else int(lens.max())
    if lens is not None:
        lens = np.ascontiguousarray(lens)
    dist = np.empty(g)
    plens = None if track is None else np.empty(g, dtype=np.int64)
    i = j = None
    if track == "path":
        i = np.full((g, n + m - 1), -1, dtype=np.int64)
        j = np.full((g, n + m - 1), -1, dtype=np.int64)
    status = KERNEL(
        a.ctypes.data,
        n if a.ndim == 2 else 0,
        mat.ctypes.data,
        width,
        _address(lens),
        g,
        n,
        m,
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
