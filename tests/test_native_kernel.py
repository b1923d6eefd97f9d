"""The native kernels' loader: every failure ends in working kernels.

Most loader tests import ``repro`` in a fresh subprocess with its own
``XDG_CACHE_HOME`` (and ``TMPDIR``); a ``PATH`` without ``gcc`` is how the
compiler is hidden.  Whatever goes wrong — no compiler, an unwritable
cache, a truncated cached library, a library missing an entry point, two
processes compiling at once, no ``os.getuid`` — the import succeeds and
the backend is either ``native`` or ``numpy`` for every entry point
together (DTW, the ingestion decide, the rank pass and the walk), never
an exception; and importing writes nothing under the repository tree.
The rank pass and both rules of the walk are held to their NumPy
references bit for bit here too, on the loaded library and on a build
without its per-ISA clones (the baseline code a pre-AVX2 host runs).
"""

import dataclasses
import inspect
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.base import LengthBucket, OnexBase, RepresentativeTable
from repro.core.config import BuildConfig, QueryConfig
from repro.core.query import QueryProcessor, QueryStats
from repro.data.dataset import TimeSeriesDataset
from repro.distances import native
from repro.distances.bounds import transfer_lower
from repro.distances.dtw import dtw_distance_batch, dtw_path_batch
from repro.distances.lower_bounds import lb_kim_endpoints_batch
from repro.exceptions import ValidationError

ROOT = Path(repro.__file__).resolve().parents[2]
HAS_GCC = shutil.which("gcc") is not None


def dtw_answers(rng):
    """The batch DTW answers of every kernel mode, by name: each window
    and ground over one ragged stack, with path lengths and traced paths,
    and in paired mode (run in-process, and in WORKLOAD as source)."""
    q = np.round(rng.normal(size=11) * 2) / 2
    rows = np.round(rng.normal(size=(40, 16)) * 2) / 2
    lens = rng.integers(1, 17, size=40)
    iu, ju = np.triu_indices(9, k=1)
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
            out["c" + tag] = dtw_distance_batch(
                rows[iu], rows[ju], window=window, ground=ground
            )
    return out


#: Imports repro, prints the backend, and saves answers of every kernel
#: mode and the buckets an ingestion decided to the file named by
#: argv[1] (when given).
WORKLOAD = inspect.getsource(dtw_answers) + """
import json, sys
import numpy as np
from repro.core.base import OnexBase
from repro.core.config import BuildConfig
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.distances import native
from repro.distances.dtw import dtw_distance_batch, dtw_path_batch
if len(sys.argv) > 1:
    rng = np.random.default_rng(7)
    out = dtw_answers(rng)
    walks = [np.round(rng.normal(size=24).cumsum() * 4) / 4 for _ in range(4)]
    base = OnexBase(
        TimeSeriesDataset.from_arrays(walks[:3], name="walks"),
        BuildConfig(similarity_threshold=0.2, min_length=4, max_length=9),
    )
    base.build()
    base.add_series(TimeSeries("new", walks[3]))
    for bucket in base.buckets():
        handles, owners = bucket.store_rows()
        tag = f"b{bucket.length}-"
        out[tag + "owners"], out[tag + "handles"] = owners, handles
        out[tag + "centroids"] = bucket.centroids
        out[tag + "radii"] = np.stack([bucket.ed_radii, bucket.cheb_radii])
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


@pytest.mark.skipif(native.KERNEL is None, reason="needs a loaded kernel")
def test_loading_prunes_the_other_libraries_of_its_cache(tmp_path, monkeypatch):
    """Libraries of other sources go once a library is bound; a compile's
    ``*.tmp`` and foreign files stay.  The bound library is a copy of
    this process's, so nothing is compiled."""
    name = native._library_name(shutil.which("gcc"))
    ours = next(d / name for d in native._cache_dirs() if (d / name).exists())
    (tmp_path / name).write_bytes(ours.read_bytes())
    kept = [name, f"dtw_kernel-{'e' * 32}.so1x2y3z.tmp", "notes.txt"]
    for other in [f"dtw_kernel-{c * 32}.so" for c in "abcd"] + kept[1:]:
        (tmp_path / other).write_bytes(b"\x7fELF")
    monkeypatch.setattr(native, "_cache_dirs", lambda: [tmp_path])
    assert native._load() is not None
    assert _libraries(tmp_path) == sorted(kept)


@pytest.mark.skipif(not HAS_GCC, reason="needs a compiler")
def test_processes_racing_the_first_compile_both_load_it(first_imports):
    assert first_imports["racers"] == ["native", "native"]
    libraries = _libraries(first_imports["racing"] / "cache" / "repro")
    assert len(libraries) == 1 and libraries[0].endswith(".so")  # no temp left


@pytest.mark.skipif(native.KERNEL is None, reason="needs a loaded kernel")
def test_every_entry_point_is_bound():
    assert native.KERNEL.dtw_batch.argtypes == native._DTW_ARGTYPES
    assert native.KERNEL.assign_windows.argtypes == native._ASSIGN_ARGTYPES
    assert native.KERNEL.rank_bounds.argtypes == native._RANK_ARGTYPES
    assert native.KERNEL.walk.argtypes == native._WALK_ARGTYPES
    assert not hasattr(native.KERNEL, "fast_walk")  # one walk, both rules
    assert native.backend() == "native"


@pytest.mark.skipif(not HAS_GCC, reason="needs a compiler")
def test_a_library_missing_an_entry_point_loads_none(tmp_path, monkeypatch):
    # As a stale or foreign library would: DTW only, then one more entry
    # point at a time, up to all but the walk.
    (tmp_path / "tmp").mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    entry_points = ["dtw_batch", "assign_windows", "rank_bounds"]
    for names in (entry_points[:1], entry_points[:2], entry_points):
        source = tmp_path / f"{len(names)}" / "_dtw_kernel.c"
        source.parent.mkdir()
        source.write_text("".join(f"int {name}(void) {{ return 0; }}\n" for name in names))
        monkeypatch.setattr(native, "_SOURCE", source)
        assert native._load() is None, names


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


#: The attribute that builds dtw_batch and rank_bounds once per ISA.
_CLONES = '__attribute__((target_clones("avx512f", "avx2", "default")))'


@pytest.fixture(scope="module")
def baseline_library(tmp_path_factory):
    """The library built from the source with its ``target_clones``
    attribute stripped, under the production flags: the baseline (SSE2)
    code that a host without AVX2 runs, here on any host."""
    source = native._SOURCE.read_text()
    assert _CLONES in source
    directory = tmp_path_factory.mktemp("baseline")
    stripped, path = directory / native._SOURCE.name, directory / "dtw_kernel.so"
    stripped.write_text(source.replace(_CLONES, ""))
    subprocess.run(
        ["gcc", *native._FLAGS, "-o", str(path), str(stripped)], check=True, capture_output=True
    )
    return native._bind(path)


@pytest.fixture(params=["loaded", "baseline"])
def library(request, monkeypatch):
    """Run a test on the loaded library (the clone this host picks), then
    on the baseline build substituted for it."""
    if native.KERNEL is None:
        pytest.skip("needs a loaded kernel")
    if request.param == "baseline":
        monkeypatch.setattr(native, "KERNEL", request.getfixturevalue("baseline_library"))
    return request.param


#: Hypothesis settings of a property test that takes the ``library`` fixture.
per_library = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def test_every_dtw_mode_equals_numpy_bit_for_bit(library):
    """Every batch DTW mode, bit for bit against the NumPy kernel."""
    got = dtw_answers(np.random.default_rng(7))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "KERNEL", None)
        want = dtw_answers(np.random.default_rng(7))
    assert sorted(got) == sorted(want)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


#: Values of the rank-pass property: signed zeros, subnormals, and
#: magnitudes whose sums overflow, where the band bound's margin is
#: ``inf - inf``; a quarter of the tables may hold non-finite values too,
#: as a normalised overflow leaves them (the C leaves a NaN to NumPy, so
#: the rest are what hold the C to it).
_FINITE = [0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1.0, -2.5, 0.125]
_FINITE += [1e200, -1e200, 1e308, -1e308]
_TABLE = _FINITE + [np.inf, -np.inf, np.nan]


def _rep_table(mats):
    """A table whose representatives are the rows of *mats*, one per length."""
    buckets = []
    for mat in mats:
        count = mat.shape[0]
        handles, radii = np.zeros((count, 2), dtype=np.int64), np.zeros(count)
        buckets.append(
            LengthBucket(
                mat.shape[1], handles, np.arange(count), mat, mat, radii, radii, writable=False
            )
        )
    return RepresentativeTable(buckets)


def _numpy_cheap_bounds(table, q, rows):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "KERNEL", None)
        return table.cheap_bounds(q, rows)


@st.composite
def rank_cases(draw):
    """A ragged table (lengths 2–24, some past 256 rows, so over several
    blocks of the C pass), a query of 1–30 points and a subset of rows."""
    scale = draw(st.sampled_from([1.0, 1e-300, 1e300]))
    level = st.one_of(st.sampled_from(_FINITE), st.floats(-4, 4).map(lambda v: v * scale))
    q = np.array(draw(st.lists(level, min_size=1, max_size=30)))
    if draw(st.booleans()):
        q[:] = q[0]  # constant: every band that holds it lets no point escape
    mats = []
    lengths = draw(st.lists(st.integers(2, 24), min_size=1, max_size=4, unique=True))
    special = _TABLE if draw(st.integers(0, 3)) == 0 else _FINITE
    for length in lengths:
        values = st.one_of(st.sampled_from(special), st.floats(-4, 4))
        row = st.lists(values, min_size=length, max_size=length)
        rows = draw(st.lists(row, min_size=1, max_size=4))
        mat = np.tile(np.array(rows), (draw(st.sampled_from([1, 1, 90])), 1))
        if length == q.shape[0]:
            mat[0] = q  # the query itself: bound exactly 0
        mats.append(mat)
    table = _rep_table(mats)
    rows = draw(st.one_of(st.none(), st.lists(st.integers(0, table.count - 1), max_size=40)))
    return table, q, None if rows is None else np.array(rows, dtype=np.int64)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference's overflows
@given(case=rank_cases())
@settings(per_library, max_examples=100)
def test_rank_pass_equals_numpy_cheap_bounds_bit_for_bit(library, case):
    """The rank pass against ``cheap_bounds``'s NumPy composition: equal
    down to NaN and the sign of zero."""
    table, q, rows = case
    got, want = table.cheap_bounds(q, rows), _numpy_cheap_bounds(table, q, rows)
    assert got.shape == want.shape == (table.count if rows is None else rows.size,)
    assert np.array_equal(got, want, equal_nan=True)
    zero = want == 0.0  # a NaN's sign bit is no part of the contract
    assert np.array_equal(np.signbit(got[zero]), np.signbit(want[zero]))
    own = table.rows_of([q.shape[0]])
    if own.size and rows is None:  # the row that is the query
        assert got[own[0]] == 0.0 and not np.signbit(got[own[0]])


def test_the_rank_pass_counts_every_escaping_point(library):
    """Random walks against queries of up to 200 points, values on a 0.1
    grid so points tie band edges: the band term decides many rows here,
    which the property's draws seldom make it do."""
    rng = np.random.default_rng(7)
    mats = [np.cumsum(rng.normal(size=(30, m)), axis=1).round(1) for m in range(2, 25)]
    table = _rep_table(mats)  # 690 rows, three blocks
    columns = (table.endpoints, table.lo, table.hi, table.lengths)
    decided = 0
    for n in (1, 2, 3, 4, 5, 24, 65, 200):
        q = (2 * np.cumsum(rng.normal(size=n))).round(1)
        for rows in (None, rng.integers(0, table.count, size=300)):
            got, want = native.rank_bounds(q, columns, rows), _numpy_cheap_bounds(table, q, rows)
            assert got is not None and np.array_equal(got, want)
            some = slice(None) if rows is None else rows
            kim = lb_kim_endpoints_batch(q, table.endpoints[some], table.lengths[some])
            decided += (want > kim).sum()
    assert decided > 1000


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_the_rank_pass_leaves_a_nan_to_numpy(library):
    table = _rep_table([np.array([[0.0, 1.0, 2.0], [3.0, np.nan, 1.0]] * 200)])  # two blocks
    columns = (table.endpoints, table.lo, table.hi, table.lengths)
    q = np.array([0.5, 1.5, 2.5])
    assert native.rank_bounds(q, columns, np.arange(0, 400, 2)) is not None
    assert native.rank_bounds(q, columns, None) is None
    assert native.rank_bounds(np.full(3, 1e308), columns, np.arange(1)) is None  # inf - inf


class _Rekeyed(QueryProcessor):
    """Ranks on ``rekey`` of the table's bounds: the rank seam the tests'
    zero-bound witness substitutes, here with any keys."""

    def __init__(self, base, config, rekey):
        super().__init__(base, config)
        self._rekey = rekey

    def _rank_bounds(self, q, reps):
        return self._rekey(super()._rank_bounds(q, reps))


#: The keys a walk case ranks on: the table's bounds, all zeros (every
#: representative verified), and integers above every estimate, so the
#: walk chooses from its first chunks and ties cross their boundaries —
#: also with the first key below the rest, alone in its high bytes.
_REKEYS = [
    lambda bounds: bounds,
    np.zeros_like,
    lambda bounds: np.floor(bounds) + 100.0,
    lambda bounds: np.where(np.arange(bounds.size) == 0, 0.5, np.floor(bounds) + 100.0),
]


@st.composite
def walk_cases(draw):
    """A small base of random walks on a half-step grid, so windows,
    keys and estimates tie (a duplicated series makes more ties), at an ST
    from near-singleton groups to a few coarse ones; a fast query of it,
    or one of ``1e308``s whose keys and estimates are all ``inf``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(5, 24), min_size=1, max_size=3))
    arrays = [np.round(rng.normal(size=n).cumsum() * 2) / 2 for n in sizes]
    if draw(st.booleans()):
        arrays.append(arrays[0].copy())
    base = OnexBase(
        TimeSeriesDataset.from_arrays(arrays, name="walks"),
        BuildConfig(
            similarity_threshold=draw(st.sampled_from([0.01, 0.05, 0.2, 0.6])),
            min_length=3,
            max_length=6,
            normalize=False,
        ),
    )
    base.build()
    if draw(st.integers(0, 7)) == 0:
        q = np.full(6, 1e308)
    else:
        q = np.round(rng.normal(size=draw(st.integers(2, 8))).cumsum() * 2) / 2
    subset = st.lists(st.sampled_from(base.lengths), min_size=1, unique=True)
    config = QueryConfig(
        mode="fast",
        window=draw(st.sampled_from([None, 0, 2])),
        refine_groups=draw(st.integers(1, 3)),
    )
    rekey = draw(st.sampled_from(_REKEYS))
    k = draw(st.integers(1, 8) | st.just(500))  # 500: every group is chosen, in walk order
    return base, q, k, draw(st.none() | subset), config, rekey


def _walked(base, config, rekey, ask):
    """The answers, every ``QueryStats`` field and the table rows each
    refinement was handed, of ``ask(processor)``."""
    refined = []
    refine = QueryProcessor._refine

    def spy(self, q, rows, *args):
        refined.append(rows.tolist())
        return refine(self, q, rows, *args)

    processor = _Rekeyed(base, config, rekey)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QueryProcessor, "_refine", spy)
        matches = ask(processor)
    answers = [(m.ref, m.distance, m.raw_distance, m.path, m.group) for m in matches]
    return answers, processor.last_stats.as_dict(), refined


def _against_python(base, config, rekey, ask):
    """``_walked`` on the native walk, then on the Python walk, and what
    each native walk call returned."""
    walked = []
    walk = native.walk

    def counted(*args, **kwargs):
        walked.append(walk(*args, **kwargs))
        return walked[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "walk", counted)
        got = _walked(base, config, rekey, ask)
        patch.setattr(native, "KERNEL", None)
        return got, _walked(base, config, rekey, ask), walked


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference's overflows
@given(case=walk_cases())
@settings(per_library, max_examples=60)
def test_the_fast_walk_equals_the_python_walk_bit_for_bit(library, case):
    """The native fast walk chooses the Python walk's groups in its order,
    does its work and returns its answers, ties and ``inf`` included."""
    base, q, k, lengths, config, rekey = case
    got, want, walked = _against_python(
        base, config, rekey, lambda p: p.k_best_matches(q, k, lengths=lengths, normalize=False)
    )
    assert len(walked) == 1 and walked[0] is not None  # no hand-back
    assert got == want


def _tight_bounds(base, q, window):
    """Every representative's tight range bound, as the Python walk's
    verify computes it: ``transfer_lower`` over the longest path."""
    table, n = base.rep_table, q.shape[0]
    raws = QueryProcessor(base, QueryConfig(window=window))._rep_dtw(
        q, table.lengths, table.gids, QueryStats()
    )
    paths = (n + table.lengths - 1).astype(np.float64)
    return transfer_lower(raws, n, table.lengths, table.radii) / paths


@st.composite
def range_cases(draw):
    """A walk case's base, query and lengths, in either mode, with group
    pruning on or off, at a threshold equal to one representative's tight
    bound where one is positive and finite: a bound that the rule keeps."""
    base, q, _, lengths, config, _ = draw(walk_cases())
    config = dataclasses.replace(
        config,
        mode=draw(st.sampled_from(["fast", "exact"])),
        use_group_pruning=draw(st.booleans()),
    )
    tight = _tight_bounds(base, q, config.window)
    if lengths is not None:
        tight = tight[base.rep_table.rows_of(lengths)]
    tight = tight[np.isfinite(tight) & (tight > 0)]
    threshold = draw(st.sampled_from(sorted(set(tight.tolist())))) if tight.size else 0.5
    return base, q, threshold, lengths, config, draw(st.sampled_from(_REKEYS[:2]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference's overflows
@given(case=range_cases())
@settings(per_library, max_examples=60)
def test_the_range_rule_equals_the_python_walk_bit_for_bit(library, case):
    """Each native range chunk keeps the Python branch's rows: the same
    answers, every ``QueryStats`` field (``rep_dtw_calls``,
    ``groups_pruned`` and ``rep_dtw_skipped`` among them) and the rows
    each refinement is handed, banded or not."""
    base, q, threshold, lengths, config, rekey = case
    got, want, walked = _against_python(
        base,
        config,
        rekey,
        lambda p: p.matches_within(q, threshold, lengths=lengths, normalize=False),
    )
    assert all(w is not None for w in walked)  # no hand-back
    assert got == want


def _small_base():
    """A base of one random walk (lengths 3-5) and a query for it."""
    rng = np.random.default_rng(5)
    base = OnexBase(
        TimeSeriesDataset.from_arrays([rng.normal(size=30).cumsum()], name="walk"),
        BuildConfig(similarity_threshold=0.2, min_length=3, max_length=5, normalize=False),
    )
    base.build()
    return base, rng.normal(size=4)


def _range_step(base, q, window):
    """One native range chunk of *base*'s table rows, at a threshold."""
    table = base.rep_table
    stores = [(b.length, *b.native_stores()) for b in base.buckets()]

    def within(take, threshold):
        columns = (table.lengths[take], table.gids[take], take)
        return native.walk(q, columns, stores, window, radii=table.radii[take], threshold=threshold)

    return within


@pytest.mark.parametrize("window", [None, 1])
def test_the_range_rule_keeps_a_bound_equal_to_the_threshold(library, window):
    """Direct range chunks against the Python verify's bounds: an empty
    chunk; each row alone at its own bound (kept) and at the float below
    it (verified, not kept); a shuffled whole table at every bound, its
    rows kept in the chunk's order."""
    base, q = _small_base()
    within, tight = _range_step(base, q, window), _tight_bounds(base, q, window)
    rows, verified = within(np.arange(0), 1.0)
    assert rows.size == verified == 0
    for row, bound in enumerate(tight.tolist()):
        assert within(np.array([row]), bound)[0].tolist() == [row]
        rows, verified = within(np.array([row]), np.nextafter(bound, -np.inf))
        assert rows.size == 0 and verified == 1
    take = np.random.default_rng(3).permutation(tight.size)
    for bound in tight.tolist():
        rows, verified = within(take, bound)
        assert rows.tolist() == take[tight[take] <= bound].tolist()
        assert verified == tight.size


def test_the_range_rule_leaves_a_non_finite_centroid_to_python(library):
    """A chunk with a non-finite centroid hands the call back, and the
    Python walk decides: its verify rejects the row on either backend."""
    base, q = _small_base()
    base.bucket(5).centroids[-1, 2] = np.inf  # the bucket's own store
    assert _range_step(base, q, None)(np.arange(base.rep_table.count), 10.0) is None
    for kernel in (native.KERNEL, None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "KERNEL", kernel)
            with pytest.raises(ValidationError, match="infinite"):
                QueryProcessor(base).matches_within(q, 10.0, normalize=False)


#: The fast walk's hand-back cases, run by the test below in a subprocess.
NAN_HANDBACK = """
import numpy as np
from repro.core.base import OnexBase
from repro.core.config import BuildConfig
from repro.data.dataset import TimeSeriesDataset
from repro.distances import native

assert native.KERNEL is not None
rng = np.random.default_rng(5)
base = OnexBase(
    TimeSeriesDataset.from_arrays([rng.normal(size=30).cumsum()], name="walk"),
    BuildConfig(similarity_threshold=0.2, min_length=3, max_length=5, normalize=False),
)
base.build()
table = base.rep_table
columns = (table.lengths, table.gids, None)
stores = [(b.length, *b.native_stores()) for b in base.buckets()]
q, keys = rng.normal(size=4), np.zeros(table.count)  # all verified

def walk(keys):
    return native.walk(q, columns, stores, None, keys=keys, k=1, groups=1)

assert walk(keys)[1] == table.count
keys[-1] = np.nan
assert walk(keys) is None
base.bucket(5).centroids[-1, 2] = np.inf  # the bucket's own store
assert walk(np.zeros(table.count)) is None
"""


@pytest.mark.skipif(native.KERNEL is None, reason="needs a loaded kernel")
def test_the_fast_walk_leaves_a_nan_to_the_python_walk():
    """A NaN key, or a non-finite centroid the walk verifies, hands the
    call back, as the rank pass hands back a NaN.  Run in a subprocess
    under a wall timeout: without its NaN-key guard the C walk loops
    forever, which fails here instead of hanging the suite."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", NAN_HANDBACK],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
