"""The native kernel's loader: every failure ends in a working kernel.

Most loader tests import ``repro`` in a fresh subprocess with its own
``XDG_CACHE_HOME`` (and ``TMPDIR``); a ``PATH`` without ``gcc`` is how the
compiler is hidden.  Whatever goes wrong — no compiler, an unwritable
cache, a truncated cached library, two processes compiling at once, no
``os.getuid`` — the import succeeds and the kernel is either ``native``
or ``numpy``, never an exception; and importing writes nothing under the
repository tree.
"""

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.distances import native
from repro.distances.dtw import dtw_distance_batch

ROOT = Path(repro.__file__).resolve().parents[2]
HAS_GCC = shutil.which("gcc") is not None

#: Imports repro, prints the backend, and saves answers of every kernel
#: mode to the file named by argv[1] (when given).
WORKLOAD = """
import json, sys
import numpy as np
from repro.distances import native
from repro.distances.dtw import (
    dtw_distance_batch, dtw_distance_condensed, dtw_path_batch,
)
if len(sys.argv) > 1:
    rng = np.random.default_rng(7)
    q = np.round(rng.normal(size=11) * 2) / 2
    rows = np.round(rng.normal(size=(40, 16)) * 2) / 2
    lens = rng.integers(1, 17, size=40)
    out = {}
    for window in (None, 0, 2):
        for ground in ("l1", "squared"):
            tag = f"{window}-{ground}"
            out["d" + tag], out["p" + tag] = dtw_distance_batch(
                q, rows, window=window, ground=ground,
                with_path_length=True, lengths=lens,
            )
            paths = dtw_path_batch(q, rows, window=window, ground=ground, lengths=lens)
            out["i" + tag], out["j" + tag] = paths.i, paths.j
            out["c" + tag] = dtw_distance_condensed(rows[:9], window=window, ground=ground)
    np.savez(sys.argv[1], **out)
print(json.dumps({"kernel": native.backend()}))
"""


def _import_repro(tmp_path, *args, path=None, cache=None, cwd=None):
    """Start ``python -c WORKLOAD`` with a private cache and temp directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["XDG_CACHE_HOME"] = str(cache or tmp_path / "cache")
    env["TMPDIR"] = str(tmp_path / "tmp")
    (tmp_path / "tmp").mkdir(exist_ok=True)
    if path is not None:
        env["PATH"] = str(path)
    return subprocess.Popen(
        [sys.executable, "-c", WORKLOAD, *map(str, args)],
        cwd=cwd or tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _kernel_of(process):
    out, err = process.communicate(timeout=300)
    assert process.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])["kernel"]


def _libraries(directory):
    return sorted(p.name for p in Path(directory).glob("*") if p.is_file())


def _git_status():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    return subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=all"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout


@pytest.fixture(scope="module")
def first_imports(tmp_path_factory):
    """Three imports started at once, each into an empty cache.

    Two race the first compile into one cache from the repository root
    (the first also saves its answers); the third has ``gcc`` hidden and
    saves the NumPy kernel's answers.  The repository's git status is
    taken before and after.
    """
    racing = tmp_path_factory.mktemp("racing")
    hidden = tmp_path_factory.mktemp("hidden")
    (hidden / "bin").mkdir()
    before = _git_status()
    racers = [
        _import_repro(racing, racing / "native.npz", cwd=ROOT),
        _import_repro(racing, cwd=ROOT),
    ]
    no_gcc = _import_repro(hidden, hidden / "numpy.npz", path=hidden / "bin")
    return {
        "racing": racing,
        "racers": [_kernel_of(p) for p in racers],
        "hidden": hidden,
        "no_gcc": _kernel_of(no_gcc),
        "status": (before, _git_status()),
    }


def test_no_compiler_falls_back_to_numpy_with_equal_answers(first_imports):
    assert first_imports["no_gcc"] == "numpy"
    hidden = first_imports["hidden"]
    assert not (hidden / "cache").exists()  # nothing was attempted
    want = np.load(first_imports["racing"] / "native.npz")
    got = np.load(hidden / "numpy.npz")
    assert sorted(want.files) == sorted(got.files)
    for name in want.files:
        assert np.array_equal(want[name], got[name]), name


@pytest.mark.skipif(not HAS_GCC, reason="needs a compiler")
def test_unwritable_cache_falls_back_to_the_temp_directory(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("a file where the cache directory would go")
    assert _kernel_of(_import_repro(tmp_path, cache=blocker)) == "native"
    private = tmp_path / "tmp" / f"repro-{os.getuid()}"
    assert [name.endswith(".so") for name in _libraries(private)] == [True]


@pytest.mark.skipif(native.KERNEL is None, reason="needs a loaded kernel")
def test_truncated_library_is_rebuilt(tmp_path):
    name = native._library_name(shutil.which("gcc"))
    # The library this process loaded, instead of a compile of its own.
    ours = next(d / name for d in native._cache_dirs() if (d / name).exists())
    whole = ours.read_bytes()
    cache = tmp_path / "cache" / "repro"
    cache.mkdir(parents=True)
    library = cache / name
    library.write_bytes(whole[: len(whole) // 2])
    assert _kernel_of(_import_repro(tmp_path)) == "native"
    assert library.read_bytes() == whole
    assert _libraries(cache) == [library.name]


@pytest.mark.skipif(not HAS_GCC, reason="needs a compiler")
def test_processes_racing_the_first_compile_both_load_it(first_imports):
    assert first_imports["racers"] == ["native", "native"]
    libraries = _libraries(first_imports["racing"] / "cache" / "repro")
    assert len(libraries) == 1 and libraries[0].endswith(".so")  # no temp left


def test_no_getuid_means_no_kernel_not_an_exception(monkeypatch):
    # As on a platform with a compiler but without os.getuid.
    monkeypatch.delattr(os, "getuid")
    assert native._load() is None


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="needs the git checkout",
)
def test_import_writes_nothing_under_the_repository(first_imports):
    before, after = first_imports["status"]  # around two cold compiles
    assert after == before


@pytest.mark.usefixtures("kernel_backend")
def test_concurrent_calls_equal_serial_calls():
    rng = np.random.default_rng(11)
    jobs = [
        (rng.normal(size=15), rng.normal(size=(300, 24)), rng.integers(8, 25, size=300))
        for _ in range(8)
    ]

    def run(job):
        q, rows, lens = job
        return dtw_distance_batch(q, rows, lengths=lens, with_path_length=True)

    serial = [run(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(run, jobs * 4))
    for (want_d, want_p), (got_d, got_p) in zip(serial * 4, concurrent):
        assert np.array_equal(want_d, got_d)
        assert np.array_equal(want_p, got_p)
