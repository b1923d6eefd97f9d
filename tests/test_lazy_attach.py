"""Lazy group attach: arrays are the truth, groups are built on demand.

A read-only attached base (``load_base_snapshot(..., mmap_mode="r")``,
what every pool worker serves from) must cost nothing per group at
attach time and build only the groups a request actually looks at —
asserted here as *counts* of ``SimilarityGroup`` constructions, never
as times — while answering every read operation exactly like a fully
materialised copy of the same snapshot.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import base as core_base
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
    """Counts every ``SimilarityGroup`` a bucket builds from its arrays."""
    built = []
    real = core_base.SimilarityGroup

    def counting(**kwargs):
        built.append(kwargs["length"])
        return real(**kwargs)

    monkeypatch.setattr(core_base, "SimilarityGroup", counting)
    return built


@pytest.fixture(scope="module")
def floor_snapshot(tmp_path_factory):
    """The benchmark's base: 50 MATTERS series, lengths 5-24, ST 0.05."""
    dataset = build_matters_collection(
        seed=5, years=40, min_years=34, indicators=("GrowthRate",)
    )
    engine = OnexEngine(QueryConfig())
    engine.load_dataset(
        dataset, similarity_threshold=0.05, min_length=5, max_length=24
    )
    base = engine.base(dataset.name)
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

    def test_materialised_copy_builds_every_group(self, floor_snapshot, group_builds):
        built_base, path = floor_snapshot
        base, _ = load_base_snapshot(path, mmap_mode=None)
        assert len(group_builds) == built_base.stats.groups
        assert all(isinstance(b.groups, list) for b in base.buckets())


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
        group = real.groups[0]
        with pytest.raises(ReadOnlyBaseError):
            lazy.append_group(group, group.centroid)
        with pytest.raises(ReadOnlyBaseError):
            lazy.append_member(0, group.members[0], group.centroid)
