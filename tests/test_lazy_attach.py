"""Arrays are the only truth of a bucket; groups are built on demand.

No bucket — built, loaded writable, or attached read-only
(``load_base_snapshot(..., mmap_mode="r")``, what every pool worker
serves from) — stores a ``SimilarityGroup`` or a ``SubsequenceRef``:
building, loading, appending, querying and saving must construct none in
bucket code, asserted here as *counts* of constructions, never as times,
while a read-only attach answers every read operation exactly like a
writable copy of the same snapshot and ``bucket.groups`` stays a correct
view of the arrays through appends.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import base as core_base
from repro.core.base import OnexBase
from repro.core.config import QueryConfig
from repro.core.engine import OnexEngine
from repro.core.mmap_layout import load_base_snapshot, save_base_snapshot
from repro.data.dataset import TimeSeriesDataset
from repro.data.matters import build_matters_collection
from repro.data.timeseries import TimeSeries
from repro.exceptions import ReadOnlyBaseError
from repro.server.protocol import POOL_DISPATCHED_OPERATIONS
from repro.server.service import OnexService


@pytest.fixture()
def group_builds(monkeypatch):
    """Records every ``SimilarityGroup`` and every ``SubsequenceRef``
    constructed inside ``core/base.py`` (bucket and base code)."""
    built = []
    real_group = core_base.SimilarityGroup
    real_ref = core_base.SubsequenceRef

    def counting_group(**kwargs):
        built.append(("group", kwargs["length"]))
        return real_group(**kwargs)

    def counting_ref(*args):
        built.append(("ref", args))
        return real_ref(*args)

    monkeypatch.setattr(core_base, "SimilarityGroup", counting_group)
    monkeypatch.setattr(core_base, "SubsequenceRef", counting_ref)
    return built


def floor_engine(similarity_threshold=0.05):
    """The benchmark's base: 50 MATTERS series, lengths 5-24."""
    dataset = build_matters_collection(
        seed=5, years=40, min_years=34, indicators=("GrowthRate",)
    )
    engine = OnexEngine(QueryConfig())
    engine.load_dataset(
        dataset,
        similarity_threshold=similarity_threshold,
        min_length=5,
        max_length=24,
    )
    return engine, dataset.name


@pytest.fixture(scope="module")
def floor_snapshot(tmp_path_factory):
    engine, name = floor_engine()
    base = engine.base(name)
    assert base.stats.groups > 20_000
    path = tmp_path_factory.mktemp("floor") / "epoch-1"
    return base, save_base_snapshot(base, path)


class TestLazinessIsACount:
    def test_attach_builds_no_group(self, floor_snapshot, group_builds):
        _, path = floor_snapshot
        base, _ = load_base_snapshot(path, mmap_mode="r")
        assert base.stats.groups > 20_000
        assert group_builds == []

    def test_count_readers_build_no_group(self, floor_snapshot, group_builds):
        built_base, path = floor_snapshot
        base, meta = load_base_snapshot(path, mmap_mode="r")
        assert base.structure_fingerprint() == meta["structure_fingerprint"]
        assert base.structure_fingerprint() == built_base.structure_fingerprint()
        for bucket, original in zip(base.buckets(), built_base.buckets()):
            assert np.array_equal(bucket.member_offsets, original.member_offsets)
            assert bucket.member_count == original.member_count
            assert bucket.members_in([0, bucket.group_count - 1]) == (
                original.members_in([0, bucket.group_count - 1])
            )
        engine = OnexEngine(QueryConfig())
        engine.restore_dataset(base.raw_dataset, base, fingerprint="x")
        panes = engine.overview(base.raw_dataset.name, limit=10)
        assert len(panes) == 10
        assert group_builds == []

    def test_k_best_refines_from_arrays(self, floor_snapshot, group_builds):
        built_base, path = floor_snapshot
        base, _ = load_base_snapshot(path, mmap_mode="r")
        engine = OnexEngine(QueryConfig())
        engine.restore_dataset(base.raw_dataset, base, fingerprint="x")
        name = base.raw_dataset.name
        query = built_base.raw_dataset[3].values[2:14]
        matches = engine.k_best_matches(name, query, 5)
        assert len(matches) == 5
        assert engine.last_query_stats(name)["groups_refined"] > 0
        # Member rows, handles and group ids come off the bucket arrays.
        assert group_builds == []

    def test_materialised_copy_builds_no_group(self, floor_snapshot, group_builds):
        built_base, path = floor_snapshot
        base, _ = load_base_snapshot(path, mmap_mode=None)
        assert base.stats.groups == built_base.stats.groups
        assert group_builds == []
        assert not any(isinstance(b.groups, list) for b in base.buckets())
        assert all(b.writable for b in base.buckets())

    def test_write_path_builds_no_group_and_no_ref(self, tmp_path, group_builds):
        """build, load, add_series, append_points, k_best and save."""
        engine, name = floor_engine()
        built = engine.base(name)
        assert built.stats.groups > 20_000
        built.save(tmp_path / "built")
        base = OnexBase.load(tmp_path / "built")
        engine = OnexEngine(QueryConfig())
        engine.restore_dataset(base.raw_dataset, base, fingerprint="x")
        rng = np.random.default_rng(8)
        summary = engine.add_series(
            name, TimeSeries("late", base.raw_dataset[0].values[:30] + 0.1)
        )
        assert summary["windows"] > 0
        target = base.raw_dataset[4].name
        for _ in range(20):
            tail = base.raw_dataset[target].values[-4:]
            engine.append_points(name, target, tail + rng.normal(scale=0.5, size=4))
        query = base.raw_dataset[3].values[2:14]
        assert len(engine.k_best_matches(name, query, 5)) == 5
        assert engine.last_query_stats(name)["groups_refined"] > 0
        base.save(tmp_path / "grown")
        assert base.stats.groups > built.stats.groups
        assert group_builds == []
        assert not any(isinstance(b.groups, list) for b in base.buckets())


# ----------------------------------------------------------------------
# Golden structure fingerprints, taken at the commit before the arrays
# became the only stored state (PR 18, b0609ab)
# ----------------------------------------------------------------------

_GOLDEN = {
    0.05: (
        "6927214043fc93ee7e00eb90571559190b3278440de0f9949280e9989487d01b",
        "d01787a334472e10fbf8428ab29e9e18056962dc7e7ced0a12ad5b34117a2395",
    ),
    0.2: (
        "0e38ec4203a04281d8713ad08d6beba3cc31dd5b1b0ab43e60b07d7bc2007558",
        "f95db12f43b5174aec130a08ca8fd74b9c73bb8e19e68a8f26349ef4aeb7a687",
    ),
}


def apply_forty_operations(engine, name):
    """36 four-point ``append_points`` and 4 ``add_series``, fixed."""
    rng = np.random.default_rng(19)
    raw = engine.base(name).raw_dataset
    names = [s.name for s in raw][:6]
    for op in range(40):
        if op % 10 == 9:
            values = raw[op % 7].values[:30] + rng.normal(scale=0.3, size=30)
            engine.add_series(name, TimeSeries(f"late-{op}", values))
        else:
            target = names[op % len(names)]
            tail = raw[target].values[-4:]
            engine.append_points(name, target, tail + rng.normal(scale=0.5, size=4))


@pytest.mark.parametrize("similarity_threshold", sorted(_GOLDEN))
def test_golden_structure_fingerprints(similarity_threshold, tmp_path):
    built, appended = _GOLDEN[similarity_threshold]
    engine, name = floor_engine(similarity_threshold)
    base = engine.base(name)
    assert base.structure_fingerprint() == built
    apply_forty_operations(engine, name)
    assert base.stats.subsequences == 27_940
    assert base.structure_fingerprint() == appended
    base.save(tmp_path / "snap")
    assert OnexBase.load(tmp_path / "snap").structure_fingerprint() == appended


# ----------------------------------------------------------------------
# Lazy == materialised, for every read operation
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_pair(tmp_path_factory):
    """The built base, and services over its lazy and materialised attach."""
    rng = np.random.default_rng(21)
    dataset = TimeSeriesDataset(
        [TimeSeries(f"s{i}", rng.normal(size=48).cumsum()) for i in range(5)],
        name="lazy-toy",
    )
    engine = OnexEngine(QueryConfig())
    engine.load_dataset(
        dataset, similarity_threshold=0.25, min_length=6, max_length=12, step=2
    )
    base = engine.base("lazy-toy")
    # Interleave appends so the writer has to gather rows, not just dump.
    engine.add_series("lazy-toy", TimeSeries("late", rng.normal(size=30).cumsum()))
    path = save_base_snapshot(base, tmp_path_factory.mktemp("toy") / "epoch-1")
    services = []
    for mmap_mode in ("r", None):
        attached, meta = load_base_snapshot(path, mmap_mode=mmap_mode)
        service = OnexService(QueryConfig())
        service.engine.restore_dataset(
            attached.raw_dataset,
            attached,
            fingerprint=meta["structure_fingerprint"],
        )
        services.append(service)
    return base, services


_SERIES = st.sampled_from(["s0", "s1", "s2", "s3", "s4", "late"])
_QUERY = st.one_of(
    st.builds(
        lambda series, start, length: {
            "series": series,
            "start": start,
            "length": length,
        },
        _SERIES,
        st.integers(0, 10),
        st.integers(6, 12),
    ),
    st.lists(
        st.floats(-3, 3, allow_nan=False, width=32), min_size=6, max_size=12
    ),
)


@st.composite
def read_requests(draw):
    op = draw(st.sampled_from(sorted(POOL_DISPATCHED_OPERATIONS)))
    params = {"dataset": "lazy-toy"}
    if op in ("best_match", "k_best", "matches_within", "sensitivity"):
        params["query"] = draw(_QUERY)
    if op == "k_best":
        params["k"] = draw(st.integers(1, 6))
    elif op == "query_batch":
        params["queries"] = draw(st.lists(_QUERY, min_size=1, max_size=3))
        params["k"] = draw(st.integers(1, 3))
    elif op == "matches_within":
        params["threshold"] = draw(st.sampled_from([0.01, 0.05, 0.2]))
    elif op == "sensitivity":
        params["thresholds"] = [0.05, 0.1, 0.3]
        params["verify"] = draw(st.booleans())
    elif op == "seasonal":
        params["series"] = draw(_SERIES)
        params["length"] = draw(st.sampled_from([6, 8]))
    elif op == "query_preview":
        params["series"] = draw(_SERIES)
        params["start"] = draw(st.integers(0, 10))
        params["length"] = draw(st.integers(2, 12))
    elif op == "thresholds":
        params["length"] = draw(st.sampled_from([6, 10]))
    elif op == "overview":
        params["length"] = draw(st.sampled_from([None, 6, 12]))
    if op in ("best_match", "k_best", "matches_within", "query_batch"):
        params["mode"] = draw(st.sampled_from(["fast", "exact"]))
    return {"op": op, "params": params, "request_id": "same"}


class TestLazyEqualsMaterialised:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(request=read_requests())
    def test_identical_payloads(self, toy_pair, request):
        _, (lazy, materialised) = toy_pair
        a = lazy.handle(request).to_dict()
        b = materialised.handle(request).to_dict()
        assert a == b

    def test_every_read_op_answers(self, toy_pair):
        """The property above must not pass on two identical errors."""
        _, (lazy, materialised) = toy_pair
        query = {"series": "s1", "start": 3, "length": 8}
        params = {
            "describe": {},
            "overview": {},
            "query_preview": {"series": "late"},
            "best_match": {"query": query},
            "k_best": {"query": query, "k": 3},
            "query_batch": {"queries": [query, [0.0, 0.5, 1.0, 0.5, 0.0, -0.5]]},
            "matches_within": {"query": query, "threshold": 0.2},
            "seasonal": {"series": "s2", "length": 6},
            "sensitivity": {"query": query, "thresholds": [0.05, 0.3]},
            "thresholds": {"length": 8},
        }
        assert set(params) == POOL_DISPATCHED_OPERATIONS
        for op, extra in params.items():
            request = {
                "op": op,
                "params": {"dataset": "lazy-toy", **extra},
                "request_id": "same",
            }
            a = lazy.handle(request).to_dict()
            assert a["ok"], a
            assert a == materialised.handle(request).to_dict()

    def test_identical_fingerprints(self, toy_pair):
        base, (lazy, materialised) = toy_pair
        fingerprints = {
            service.engine.base("lazy-toy").structure_fingerprint()
            for service in (lazy, materialised)
        }
        assert fingerprints == {base.structure_fingerprint()}

    def test_every_group_equal(self, toy_pair):
        _, (lazy, materialised) = toy_pair
        for a, b in zip(
            lazy.engine.base("lazy-toy").buckets(),
            materialised.engine.base("lazy-toy").buckets(),
        ):
            assert len(a.groups) == len(b.groups)
            for ga, gb in zip(a.groups, b.groups):
                assert ga.members == gb.members
                assert ga.ed_radius == gb.ed_radius
                assert ga.cheb_radius == gb.cheb_radius
                assert np.array_equal(ga.centroid, gb.centroid)
        lazy.engine.base("lazy-toy").validate()


class TestLazySequenceSemantics:
    @pytest.fixture()
    def buckets(self, toy_pair):
        _, (lazy, materialised) = toy_pair
        length = lazy.engine.base("lazy-toy").lengths[0]
        return (
            lazy.engine.base("lazy-toy").bucket(length),
            materialised.engine.base("lazy-toy").bucket(length),
        )

    def test_len_and_iteration(self, buckets):
        lazy, real = buckets
        assert not isinstance(lazy.groups, list)
        assert len(lazy.groups) == len(real.groups) == lazy.group_count
        assert [g.members for g in lazy.groups] == [g.members for g in real.groups]
        assert [g.members for g in reversed(lazy.groups)] == [
            g.members for g in reversed(real.groups)
        ]

    def test_negative_index_and_memoisation(self, buckets):
        lazy, real = buckets
        assert lazy.groups[-1].members == real.groups[-1].members
        assert lazy.groups[-1] is lazy.groups[len(lazy.groups) - 1]
        assert lazy.groups[np.int64(0)] is lazy.groups[0]

    def test_slices(self, buckets):
        lazy, real = buckets
        for window in (slice(1, 4), slice(None, None, 3), slice(-2, None), slice(5, 2)):
            assert [g.members for g in lazy.groups[window]] == [
                g.members for g in real.groups[window]
            ]

    def test_out_of_range(self, buckets):
        lazy, _ = buckets
        count = len(lazy.groups)
        for bad in (count, count + 7, -count - 1):
            with pytest.raises(IndexError):
                lazy.groups[bad]
        with pytest.raises(TypeError):
            lazy.groups["0"]

    def test_bucket_appends_are_refused(self, buckets):
        lazy, real = buckets
        assert real.writable and not lazy.writable
        for owner in (0, lazy.group_count):  # a join, a new group
            with pytest.raises(ReadOnlyBaseError):
                lazy.append(
                    np.array([owner]), lazy.member_handles[:1], lazy.centroids[:1]
                )


# ----------------------------------------------------------------------
# The view and the one row lookup stay correct through appends
# ----------------------------------------------------------------------


def toy_base(tmp_path=None):
    """A small built base — or, with *tmp_path*, its writable reload."""
    rng = np.random.default_rng(33)
    dataset = TimeSeriesDataset(
        [TimeSeries(f"s{i}", rng.normal(size=40).cumsum()) for i in range(4)],
        name="view-toy",
    )
    engine = OnexEngine(QueryConfig())
    engine.load_dataset(
        dataset, similarity_threshold=0.15, min_length=5, max_length=8
    )
    if tmp_path is not None:
        engine.base("view-toy").save(tmp_path / "toy")
        base = OnexBase.load(tmp_path / "toy")
        engine = OnexEngine(QueryConfig())
        engine.restore_dataset(base.raw_dataset, base, fingerprint="x")
    return engine


def expected_members(bucket, g):
    """Group *g*'s ``(series_index, start)`` list, off the logical arrays."""
    lo, hi = bucket.member_offsets[g : g + 2].tolist()
    return [tuple(h) for h in bucket.member_handles[lo:hi].tolist()]


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded-writable"])
def test_groups_view_follows_appends(loaded, tmp_path):
    engine = toy_base(tmp_path if loaded else None)
    base = engine.base("view-toy")
    before = {b.length: b.group_count for b in base.buckets()}
    cards = {b.length: b.cardinalities for b in base.buckets()}
    # Memoise every group, so a stale memo would be caught below.
    memo = {b.length: list(b.groups) for b in base.buckets()}
    rng = np.random.default_rng(2)
    engine.add_series("view-toy", TimeSeries("late", rng.normal(size=30).cumsum()))
    tail = base.raw_dataset["s1"].values[-1]
    engine.append_points("view-toy", "s1", tail + rng.normal(size=6))
    grown = seeded = 0
    for bucket in base.buckets():
        assert not isinstance(bucket.groups, list)
        assert len(bucket.groups) == bucket.group_count
        for g, group in enumerate(bucket.groups):
            assert group.cardinality == bucket.cardinalities[g]
            assert [(m.series_index, m.start) for m in group.members] == (
                expected_members(bucket, g)
            )
            assert all(m.length == bucket.length for m in group.members)
            assert np.array_equal(group.centroid, bucket.centroids[g])
            assert group.ed_radius == bucket.ed_radii[g]
            assert group.cheb_radius == bucket.cheb_radii[g]
            if g >= before[bucket.length]:
                seeded += 1
            elif group.cardinality > cards[bucket.length][g]:
                grown += 1
                assert group is not memo[bucket.length][g]
            else:
                assert group is memo[bucket.length][g]
    assert grown and seeded
    base.validate()


def test_dropped_attached_base_needs_no_collector(tmp_path):
    """The view and its memo form no cycle with the bucket, so dropping
    a read-only base frees its buckets (and their map) by refcount alone."""
    path = save_base_snapshot(toy_base().base("view-toy"), tmp_path / "epoch-1")
    base, _ = load_base_snapshot(path, mmap_mode="r")
    bucket = base.bucket(6)
    view, group = bucket.groups, bucket.groups[1]
    assert bucket.groups[1] is group
    dropped = weakref.ref(bucket)
    gc.disable()
    try:
        del base, bucket, view
        assert dropped() is None
    finally:
        gc.enable()
    assert group.cardinality >= 1  # a handed-out group outlives its bucket


def indexed_buckets(tmp_path):
    built = toy_base().base("view-toy").bucket(6)
    engine = toy_base()
    engine.add_series(
        "view-toy", TimeSeries("late", np.random.default_rng(2).normal(size=30).cumsum())
    )
    appended = engine.base("view-toy").bucket(6)
    path = save_base_snapshot(engine.base("view-toy"), tmp_path / "epoch-1")
    attached = load_base_snapshot(path, mmap_mode="r")[0].bucket(6)
    return {"built": built, "appended": appended, "attached": attached}


@pytest.mark.parametrize("kind", ["built", "appended", "attached"])
def test_rows_index_like_groups(kind, tmp_path):
    """``member_rows`` and ``group_rows`` wrap negatives and raise
    ``IndexError`` out of range, exactly like ``groups[i]``."""
    bucket = indexed_buckets(tmp_path)[kind]
    count = bucket.group_count
    assert (bucket._row_group is not None) == (kind == "appended")
    dataset_rows = {
        g: [(m.series_index, m.start) for m in bucket.groups[g].members]
        for g in (0, count - 1)
    }
    for negative, positive in ((-1, count - 1), (-count, 0)):
        assert bucket.groups[negative] is bucket.groups[positive]
        rows = bucket.member_rows(negative)
        assert rows.shape == (bucket.groups[positive].cardinality, bucket.length)
        assert np.array_equal(rows, bucket.member_rows(positive))
        at, handles, owner = bucket.group_rows(np.array([negative]))
        assert np.array_equal(bucket.member_matrix[at], rows)
        assert [tuple(h) for h in handles.tolist()] == dataset_rows[positive]
        assert owner.tolist() == [positive] * len(rows)
    for bad in (count, count + 3, -count - 1):
        with pytest.raises(IndexError):
            bucket.groups[bad]
        with pytest.raises(IndexError):
            bucket.member_rows(bad)
        with pytest.raises(IndexError):
            bucket.group_rows(np.array([0, bad]))
