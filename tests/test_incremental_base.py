"""Tests for incremental base updates (OnexBase.add_series)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import OnexBase
from repro.core.config import BuildConfig
from repro.core.query import QueryProcessor
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.exceptions import DatasetError, NotBuiltError, ValidationError
from repro.stream import StreamIngestor


def make_base(normalize=True, st=0.1):
    rng = np.random.default_rng(201)
    ds = TimeSeriesDataset.from_arrays(
        [rng.normal(size=16).cumsum() for _ in range(3)], name="inc"
    )
    base = OnexBase(
        ds,
        BuildConfig(
            similarity_threshold=st, min_length=4, max_length=6, normalize=normalize
        ),
    )
    base.build()
    return base


class TestAddSeries:
    def test_summary_accounts_for_all_windows(self):
        base = make_base()
        rng = np.random.default_rng(202)
        new = TimeSeries("extra", rng.normal(size=12).cumsum())
        summary = base.add_series(new)
        expected = sum(12 - n + 1 for n in (4, 5, 6))
        assert summary["windows"] == expected
        assert summary["joined_existing_groups"] + summary["new_groups"] == expected

    def test_invariants_hold_after_add(self):
        base = make_base()
        rng = np.random.default_rng(203)
        base.add_series(TimeSeries("extra", rng.normal(size=10).cumsum()))
        base.validate()

    def test_new_series_is_queryable(self):
        base = make_base()
        rng = np.random.default_rng(204)
        values = rng.normal(size=10).cumsum()
        base.add_series(TimeSeries("extra", values))
        match = QueryProcessor(base).best_match(values[:5])
        assert match.distance == pytest.approx(0.0, abs=1e-9)
        assert match.series_name == "extra"

    def test_stats_updated(self):
        base = make_base()
        before = base.stats
        rng = np.random.default_rng(205)
        summary = base.add_series(TimeSeries("extra", rng.normal(size=8).cumsum()))
        after = base.stats
        assert after.subsequences == before.subsequences + summary["windows"]
        assert after.groups == before.groups + summary["new_groups"]

    def test_identical_series_joins_existing_groups(self):
        base = make_base(st=0.2)
        copy_of = base.raw_dataset[0]
        clone = TimeSeries("clone", copy_of.values)
        summary = base.add_series(clone)
        # Every window of an existing series sits at distance 0 from the
        # group its twin belongs to -> it must join, not create.
        assert summary["new_groups"] == 0
        assert summary["joined_existing_groups"] == summary["windows"]

    def test_normalization_uses_build_time_bounds(self):
        base = make_base()
        lo, hi = base.raw_dataset.global_bounds()
        inside = TimeSeries("inside", np.linspace(lo, hi, 10))
        base.add_series(inside)
        normalized = base.dataset["inside"].values
        assert normalized.min() == pytest.approx(0.0)
        assert normalized.max() == pytest.approx(1.0)

    def test_out_of_bounds_values_allowed(self):
        base = make_base()
        _, hi = base.raw_dataset.global_bounds()
        spiky = TimeSeries("spiky", np.linspace(hi, hi * 2 + 1, 10))
        base.add_series(spiky)
        base.validate()
        assert base.dataset["spiky"].values.max() > 1.0

    def test_longer_series_creates_new_lengths_only_in_range(self):
        base = make_base()
        rng = np.random.default_rng(206)
        base.add_series(TimeSeries("long", rng.normal(size=40).cumsum()))
        assert base.lengths == [4, 5, 6]  # config range is the ceiling

    def test_duplicate_name_rejected(self):
        base = make_base()
        with pytest.raises(DatasetError, match="duplicate"):
            base.add_series(TimeSeries(base.raw_dataset[0].name, [1.0] * 8))

    def test_non_series_rejected(self):
        base = make_base()
        with pytest.raises(ValidationError):
            base.add_series([1.0, 2.0, 3.0])

    def test_unbuilt_base_rejected(self):
        rng = np.random.default_rng(207)
        ds = TimeSeriesDataset.from_arrays([rng.normal(size=10)], name="u")
        base = OnexBase(
            ds, BuildConfig(similarity_threshold=0.1, min_length=4, max_length=5)
        )
        with pytest.raises(NotBuiltError):
            base.add_series(TimeSeries("x", rng.normal(size=8)))

    def test_save_load_round_trip_after_add(self, tmp_path):
        base = make_base()
        rng = np.random.default_rng(208)
        base.add_series(TimeSeries("extra", rng.normal(size=9).cumsum()))
        path = tmp_path / "inc"
        base.save(path)
        loaded = OnexBase.load(path)
        assert loaded.stats.groups == base.stats.groups
        loaded.validate()

    def test_unnormalized_base_add(self):
        base = make_base(normalize=False)
        rng = np.random.default_rng(209)
        summary = base.add_series(TimeSeries("extra", rng.normal(size=8).cumsum()))
        assert summary["windows"] > 0
        base.validate()


def oracle_assign(centroids, windows, radius):
    """The assignment rule, one window at a time: nearest of *all*
    centroids — those seeded earlier in the call included — lowest index
    on ties; join within the radius, else seed."""
    table = list(centroids)
    groups, created = [], []
    for row in windows:
        dists = np.abs(np.array(table).reshape(len(table), row.size) - row).mean(axis=1)
        best = int(np.argmin(dists)) if table else 0
        created.append(not table or dists[best] > radius)
        groups.append(len(table) if created[-1] else best)
        if created[-1]:
            table.append(row)
    return np.array(groups), np.array(created)


# Quarter steps make exact ties (equal rows, equal distances, distances
# landing on the radius); the 1e-12 nudges make near-ties.
_LEVELS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 0.5 + 1e-12, 0.25 - 1e-12])


@st.composite
def assignment_cases(draw):
    channels = draw(st.sampled_from([1, 2]))

    def series(min_points, max_points, shift=0.0, scale=1.0):
        points = draw(st.integers(min_points, max_points))
        flat = draw(st.lists(_LEVELS, min_size=points * channels, max_size=points * channels))
        values = shift + scale * np.array(flat)
        return values.reshape(points, channels) if channels > 1 else values

    config = BuildConfig(
        # Group radius 5e-7 .. 5: from "nothing but exact duplicates
        # joins" over radii the quarter-step distances land on exactly to
        # "every centroid passes the prescreen".
        similarity_threshold=draw(st.sampled_from([1e-6, 0.125, 0.25, 0.5, 10.0])),
        min_length=3,
        max_length=8,
        step=draw(st.sampled_from([1, 2, 3])),
        normalize=draw(st.booleans()),
    )
    history = [series(5, 7) for _ in range(draw(st.integers(1, 3)))]
    # Longer than any indexed series (opens the buckets of lengths up to
    # 8) and, shifted or scaled, outside the build-time bounds.
    shift, scale = draw(st.sampled_from([(0.0, 1.0), (3.0, 1.0), (-1.0, 4.0), (0.0, 1e6)]))
    added = series(9, 12, shift, scale)
    chunk = series(1, 5, shift, scale)
    return config, history, added, chunk


class TestAssignmentAgainstSequentialOracle:
    @staticmethod
    def _check(base, name, previous_length, call):
        """Run *call* (which indexes the windows series *name* gained
        beyond *previous_length*) and compare with the oracle."""
        cfg = base.config
        before = {
            b.length: (b.centroids.copy(), b.ed_radii.copy(), b.cheb_radii.copy(),
                       b.cardinalities, b.member_count)
            for b in base.buckets()
        }
        captured = []
        kernel = base.index_new_windows
        base.index_new_windows = lambda *a: captured.append(kernel(*a)) or captured[-1]
        try:
            call()
        finally:
            del base.index_new_windows
        (out,) = captured
        values = base.dataset[name].values
        n = values.shape[0]
        series_index = base.dataset.index_of(name)
        assert 0 <= out.evaluated <= out.centroids
        seen = 0
        for length in range(cfg.min_length, min(cfg.max_length, n) + 1):
            first = -(-max(0, previous_length - length + 1) // cfg.step) * cfg.step
            starts = np.arange(first, n - length + 1, cfg.step)
            if not starts.size:
                continue
            windows = np.array([values[s : s + length].ravel() for s in starts])
            empty = np.empty((0, windows.shape[1]))
            centroids, ed, cheb, cards, rows_before = before.get(
                length, (empty, np.empty(0), np.empty(0), np.empty(0, dtype=int), 0)
            )
            groups, created = oracle_assign(centroids, windows, cfg.group_radius)
            mine = slice(seen, seen + starts.size)
            seen += starts.size
            assert np.array_equal(out.lengths[mine], np.full(starts.size, length))
            assert np.array_equal(out.starts[mine], starts)
            assert np.array_equal(out.groups[mine], groups)
            assert np.array_equal(out.created[mine], created)
            # The bucket: seeds in window order, then joins group by
            # group in order of each group's first join.
            joined = np.flatnonzero(~created)
            first_join = {}
            for i in joined:
                first_join.setdefault(groups[i], i)
            order = np.array(
                list(np.flatnonzero(created))
                + sorted(joined, key=lambda i: (first_join[groups[i]], i)),
                dtype=int,
            )
            bucket = base.bucket(length)
            total = centroids.shape[0] + int(created.sum())
            assert bucket.group_count == total
            assert np.array_equal(bucket.centroids, np.vstack([centroids, windows[created]]))
            rows, handles, owners = bucket.group_rows(np.arange(total))
            assert np.array_equal(rows, np.arange(rows_before + starts.size))
            assert np.array_equal(owners[rows_before:], groups[order])
            assert np.array_equal(
                handles[rows_before:],
                np.column_stack((np.full(starts.size, series_index), starts[order])),
            )
            assert np.array_equal(bucket.member_matrix[rows_before:], windows[order])
            deviation = np.abs(windows - bucket.centroids[groups])
            want_ed = np.concatenate([ed, np.zeros(total - ed.size)])
            want_cheb = np.concatenate([cheb, np.zeros(total - cheb.size)])
            np.maximum.at(want_ed, groups, deviation.mean(axis=1))
            np.maximum.at(want_cheb, groups, deviation.max(axis=1))
            assert np.array_equal(bucket.ed_radii, want_ed)
            assert np.array_equal(bucket.cheb_radii, want_cheb)
            want_cards = np.concatenate([cards, np.zeros(total - cards.size, dtype=int)])
            np.add.at(want_cards, groups, 1)
            assert np.array_equal(bucket.member_offsets, np.concatenate([[0], np.cumsum(want_cards)]))
        assert seen == len(out)

    @given(case=assignment_cases())
    @settings(max_examples=60, deadline=None)
    def test_add_series_then_append_match_the_oracle(self, case):
        config, history, added, chunk = case
        base = OnexBase(TimeSeriesDataset.from_arrays(history, name="hist"), config)
        base.build()
        base.rep_table  # exists, so the calls below must keep it in sync
        self._check(base, "new", 0, lambda: base.add_series(TimeSeries("new", added)))
        ingestor = StreamIngestor(base)
        self._check(
            base, "new", len(added), lambda: ingestor.append_points("new", chunk)
        )
        base.validate()
        table = base.rep_table
        for bucket in base.buckets():
            at = table.rows_of([bucket.length])
            assert np.array_equal(table.gids[at], np.arange(bucket.group_count))
            assert np.array_equal(table.radii[at], bucket.cheb_radii)
            centroids = bucket.centroids
            assert np.array_equal(table.lo[at], centroids.min(axis=1))
            assert np.array_equal(table.hi[at], centroids.max(axis=1))
            assert np.array_equal(table.endpoints[at], centroids[:, [0, 1, -2, -1]])
            assert np.array_equal(bucket.centroid_means, centroids.mean(axis=1))
