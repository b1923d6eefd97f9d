"""Tests for incremental base updates (OnexBase.add_series)."""

import numpy as np
import pytest

from repro.core.base import OnexBase
from repro.core.config import BuildConfig
from repro.core.query import QueryProcessor
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.exceptions import DatasetError, NotBuiltError, ValidationError


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
