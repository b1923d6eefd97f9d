"""Tests for the streaming write path (repro.stream.ingest / buffer).

The headline contract is **append/rebuild equivalence**: any sequence of
point appends leaves the base answering exact-strategy queries exactly
like ``add_series`` of the full series and like a from-scratch
``build()`` over the same data — asserted here both on fixed cases and
as a Hypothesis property.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import BruteForceSearcher
from repro.core.base import OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.query import QueryProcessor
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.exceptions import ValidationError
from repro.stream import SeriesBuffer, StreamIngestor


def make_base(normalize=True, st_value=0.15, step=1, seed=301):
    rng = np.random.default_rng(seed)
    ds = TimeSeriesDataset.from_arrays(
        [rng.normal(size=18).cumsum() for _ in range(3)], name="stream-base"
    )
    base = OnexBase(
        ds,
        BuildConfig(
            similarity_threshold=st_value,
            min_length=4,
            max_length=6,
            step=step,
            normalize=normalize,
        ),
    )
    base.build()
    return base


class TestSeriesBuffer:
    def test_snapshots_are_stable_and_readonly(self):
        buf = SeriesBuffer("s", bounds=None)
        buf.extend([1.0, 2.0, 3.0])
        snap = buf.raw_snapshot()
        buf.extend(np.arange(200, dtype=float))  # forces reallocation
        assert snap.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises((ValueError, RuntimeError)):
            snap[0] = 99.0

    def test_normalisation_matches_whole_series(self):
        bounds = (0.0, 10.0)
        buf = SeriesBuffer("s", bounds=bounds)
        values = np.linspace(-2, 14, 40)
        for v in values:
            buf.extend([v])
        from repro.distances.normalize import minmax_normalize

        expected = minmax_normalize(values, lo=bounds[0], hi=bounds[1])
        assert np.array_equal(buf.norm_snapshot(), expected)

    def test_rejects_bad_chunks(self):
        buf = SeriesBuffer("s", bounds=None)
        with pytest.raises(ValidationError):
            buf.extend([])
        with pytest.raises(ValidationError):
            buf.extend([1.0, float("nan")])


class TestStreamIngestor:
    def test_append_creates_series_and_indexes_windows(self):
        base = make_base()
        ing = StreamIngestor(base)
        rng = np.random.default_rng(1)
        values = rng.normal(size=10).cumsum()
        total_windows = 0
        for v in values:
            summary = ing.append_points("live", [v])
            total_windows += summary["windows"]
        assert "live" in base.raw_dataset
        assert len(base.raw_dataset["live"].values) == 10
        # Same window count as bulk add of the identical series.
        expected = sum(10 - n + 1 for n in (4, 5, 6))
        assert total_windows == expected
        base.validate()

    def test_append_to_existing_series_indexes_only_new_windows(self):
        base = make_base()
        ing = StreamIngestor(base)
        before = base.stats.subsequences
        name = base.raw_dataset[0].name
        old_n = len(base.raw_dataset[0])
        summary = ing.append_points(name, [0.5, 0.7])
        new_n = old_n + 2
        expected = sum(
            (new_n - length + 1) - (old_n - length + 1) for length in (4, 5, 6)
        )
        assert summary["windows"] == expected
        assert base.stats.subsequences == before + expected
        base.validate()

    def test_stats_and_counters(self):
        base = make_base()
        ing = StreamIngestor(base)
        ing.append_points("a", np.arange(8, dtype=float))
        ing.append_points("a", np.arange(3, dtype=float))
        assert ing.points_ingested == 11
        assert ing.windows_indexed > 0
        assert ing.series_names() == ["a"]

    def test_step_respects_build_grid(self):
        base = make_base(step=2)
        ing = StreamIngestor(base)
        rng = np.random.default_rng(2)
        for v in rng.normal(size=12).cumsum():
            ing.append_points("live", [v])
        bucket = base.bucket(4)
        starts = sorted(
            m.start
            for g in bucket.groups
            for m in g.members
            if base.dataset[m.series_index].name == "live"
        )
        assert starts == [0, 2, 4, 6, 8]
        base.validate()

    def test_short_series_has_no_windows_until_long_enough(self):
        base = make_base()
        ing = StreamIngestor(base)
        assert ing.append_points("live", [1.0])["windows"] == 0
        assert ing.append_points("live", [2.0, 3.0])["windows"] == 0
        summary = ing.append_points("live", [4.0])
        assert summary["windows"] == 1  # exactly the first length-4 window
        base.validate()

    def test_rejects_garbage(self):
        base = make_base()
        ing = StreamIngestor(base)
        with pytest.raises(ValidationError):
            ing.append_points("", [1.0])
        with pytest.raises(ValidationError):
            ing.append_points("live", [])
        with pytest.raises(ValidationError):
            ing.append_points("live", [float("inf")])

    def test_existing_refs_still_resolve_after_appends(self):
        base = make_base()
        ing = StreamIngestor(base)
        bucket = base.bucket(5)
        ref = bucket.groups[0].members[0]
        before = base.dataset.values(ref).copy()
        name = base.dataset[ref.series_index].name
        ing.append_points(name, [9.0, 9.5, 8.5])
        assert np.array_equal(base.dataset.values(ref), before)

    def test_save_load_round_trip_after_streaming(self, tmp_path):
        base = make_base()
        ing = StreamIngestor(base)
        rng = np.random.default_rng(3)
        for v in rng.normal(size=9).cumsum():
            ing.append_points("live", [v])
        path = tmp_path / "streamed"
        base.save(path)
        loaded = OnexBase.load(path)
        loaded.validate()
        assert loaded.stats.groups == base.stats.groups
        q = rng.uniform(size=5)
        a = QueryProcessor(base, QueryConfig(mode="exact")).best_match(q)
        b = QueryProcessor(loaded, QueryConfig(mode="exact")).best_match(q)
        assert a.ref == b.ref and a.distance == pytest.approx(b.distance)


class TestAppendRebuildEquivalence:
    def assert_equivalent(self, streamed_base, reference_base, queries):
        exact_a = QueryProcessor(streamed_base, QueryConfig(mode="exact"))
        exact_b = QueryProcessor(reference_base, QueryConfig(mode="exact"))
        for q in queries:
            a = exact_a.best_match(q, normalize=False)
            b = exact_b.best_match(q, normalize=False)
            assert a.ref == b.ref
            assert a.distance == pytest.approx(b.distance, abs=1e-12)
            wa = exact_a.matches_within(q, 0.12, normalize=False)
            wb = exact_b.matches_within(q, 0.12, normalize=False)
            assert [m.ref for m in wa] == [m.ref for m in wb]
            assert [m.distance for m in wa] == pytest.approx(
                [m.distance for m in wb], abs=1e-12
            )

    def test_point_by_point_equals_add_series_and_rebuild(self):
        rng = np.random.default_rng(77)
        arrays = [rng.normal(size=16).cumsum() for _ in range(3)]
        new_values = rng.normal(size=12).cumsum()
        cfg = BuildConfig(
            similarity_threshold=0.2, min_length=4, max_length=6, normalize=False
        )

        streamed = OnexBase(
            TimeSeriesDataset.from_arrays([a.copy() for a in arrays], name="s1"), cfg
        )
        streamed.build()
        ing = StreamIngestor(streamed)
        for v in new_values:
            ing.append_points("extra", [v])

        bulk = OnexBase(
            TimeSeriesDataset.from_arrays([a.copy() for a in arrays], name="s2"), cfg
        )
        bulk.build()
        bulk.add_series(TimeSeries("extra", new_values))

        rebuilt = OnexBase(
            TimeSeriesDataset.from_arrays(
                [a.copy() for a in arrays] + [new_values], name="s3",
                names=[f"series-{k}" for k in range(3)] + ["extra"],
            ),
            cfg,
        )
        rebuilt.build()

        streamed.validate()
        assert streamed.stats.subsequences == rebuilt.stats.subsequences
        queries = [rng.uniform(size=rng.integers(4, 7)) for _ in range(8)]
        self.assert_equivalent(streamed, bulk, queries)
        self.assert_equivalent(streamed, rebuilt, queries)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=8,
                max_size=12,
            ),
            min_size=2,
            max_size=3,
        ),
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=5,
            max_size=10,
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_property_stream_equals_rebuild(self, arrays, new_values, chunk):
        """Feeding a series chunk-by-chunk == building from scratch."""
        cfg = BuildConfig(
            similarity_threshold=0.1, min_length=4, max_length=5, normalize=False
        )
        streamed = OnexBase(
            TimeSeriesDataset.from_arrays([np.array(a) for a in arrays], name="p1"),
            cfg,
        )
        streamed.build()
        ing = StreamIngestor(streamed)
        for i in range(0, len(new_values), chunk):
            ing.append_points("extra", new_values[i : i + chunk])

        rebuilt = OnexBase(
            TimeSeriesDataset.from_arrays(
                [np.array(a) for a in arrays] + [np.array(new_values)],
                name="p2",
                names=[f"series-{k}" for k in range(len(arrays))] + ["extra"],
            ),
            cfg,
        )
        rebuilt.build()

        streamed.validate()
        assert streamed.stats.subsequences == rebuilt.stats.subsequences
        exact_a = QueryProcessor(streamed, QueryConfig(mode="exact"))
        exact_b = QueryProcessor(rebuilt, QueryConfig(mode="exact"))
        rng = np.random.default_rng(5)
        for _ in range(3):
            q = rng.uniform(size=4)
            a = exact_a.best_match(q, normalize=False)
            b = exact_b.best_match(q, normalize=False)
            assert a.ref == b.ref
            assert a.distance == pytest.approx(b.distance, abs=1e-12)


class TestMemberMatrixGrowth:
    """The add_series -> query cliff fix: rows appended, not re-gathered."""

    def test_add_series_keeps_member_matrix_attached(self):
        base = make_base()
        rng = np.random.default_rng(9)
        matrices_before = {b.length: b.member_matrix for b in base.buckets()}
        base.add_series(TimeSeries("extra", rng.normal(size=12).cumsum()))
        for bucket in base.buckets():
            assert bucket.member_matrix is not None
            assert bucket.member_matrix.shape[0] == bucket.member_count
            # The original rows were not re-gathered: the prefix holds the
            # same values (possibly in a reallocated store).
            before = matrices_before[bucket.length]
            assert np.array_equal(bucket.member_matrix[: before.shape[0]], before)

    def test_member_rows_consistent_after_interleaved_appends(self):
        base = make_base(st_value=0.4)  # wide radius: most windows join
        ing = StreamIngestor(base)
        rng = np.random.default_rng(10)
        for v in rng.normal(size=14).cumsum():
            ing.append_points("live", [v])
        for bucket in base.buckets():
            for g_idx, group in enumerate(bucket.groups):
                rows = bucket.member_rows(g_idx)
                assert rows.shape == (group.cardinality, bucket.length)
                for row, ref in zip(rows, group.members):
                    assert np.array_equal(row, base.dataset.values(ref))

    def test_stacked_member_matrix_matches_group_order(self):
        base = make_base(st_value=0.4)
        ing = StreamIngestor(base)
        rng = np.random.default_rng(11)
        for v in rng.normal(size=10).cumsum():
            ing.append_points("live", [v])
        for bucket in base.buckets():
            stacked = bucket.stacked_member_matrix()
            offsets = bucket.member_offsets
            for g_idx in range(bucket.group_count):
                lo, hi = offsets[g_idx], offsets[g_idx + 1]
                assert np.array_equal(stacked[lo:hi], bucket.member_rows(g_idx))

    def test_refinement_is_brute_force_after_streaming(self):
        base = make_base()
        ing = StreamIngestor(base)
        rng = np.random.default_rng(12)
        for v in rng.normal(size=12).cumsum():
            ing.append_points("live", [v])
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        oracle = BruteForceSearcher(base.dataset)
        for _ in range(5):
            q = rng.uniform(size=5)
            a = processor.best_match(q, normalize=False)
            b = oracle.best_match(q, base.lengths)
            assert (a.ref, a.distance) == (b.ref, b.distance)


def test_rejected_first_append_leaves_series_usable():
    """A failed first append must not orphan a buffer for the name."""
    base = make_base()
    ing = StreamIngestor(base)
    with pytest.raises(ValidationError):
        ing.append_points("live", [])
    with pytest.raises(ValidationError):
        ing.append_points("live", [float("nan")])
    assert "live" not in base.raw_dataset
    summary = ing.append_points("live", [1.0, 2.0, 3.0])
    assert summary["total_points"] == 3
    assert np.array_equal(base.raw_dataset["live"].values, [1.0, 2.0, 3.0])
