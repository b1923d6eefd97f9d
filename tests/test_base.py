"""Unit tests for repro.core.base (the ONEX base)."""

import numpy as np
import pytest

from repro.core.base import OnexBase
from repro.core.config import BuildConfig
from repro.data.dataset import TimeSeriesDataset
from repro.data.matters import build_matters_collection
from repro.data.timeseries import TimeSeries
from repro.exceptions import (
    DatasetError,
    NotBuiltError,
    PersistenceError,
    ValidationError,
)


@pytest.fixture(scope="module")
def small_dataset():
    rng = np.random.default_rng(61)
    return TimeSeriesDataset.from_arrays(
        [rng.normal(size=n).cumsum() for n in (20, 16, 24, 12)], name="walks"
    )


@pytest.fixture(scope="module")
def built_base(small_dataset):
    base = OnexBase(
        small_dataset,
        BuildConfig(similarity_threshold=0.1, min_length=4, max_length=8),
    )
    base.build()
    return base


class TestBuild:
    def test_stats_reflect_construction(self, built_base, small_dataset):
        stats = built_base.stats
        expected = sum(
            small_dataset.subsequence_matrix(n)[0].shape[0] for n in range(4, 9)
        )
        assert stats.subsequences == expected
        assert stats.groups >= 1
        assert stats.lengths == 5
        assert stats.build_seconds > 0
        assert stats.compaction_ratio > 1.0

    def test_lengths_indexed(self, built_base):
        assert built_base.lengths == [4, 5, 6, 7, 8]

    def test_invariants_hold(self, built_base):
        built_base.validate()  # raises InvariantError on violation

    def test_bucket_accessors(self, built_base):
        bucket = built_base.bucket(5)
        assert bucket.length == 5
        assert bucket.centroids.shape == (bucket.group_count, 5)
        assert bucket.member_count == sum(g.cardinality for g in bucket.groups)
        group = built_base.group(5, 0)
        assert group.length == 5

    def test_unknown_length_raises(self, built_base):
        with pytest.raises(DatasetError, match="not indexed"):
            built_base.bucket(99)

    def test_bad_group_index_raises(self, built_base):
        with pytest.raises(DatasetError, match="out of range"):
            built_base.group(5, 10_000)

    def test_unbuilt_base_raises(self, small_dataset):
        base = OnexBase(
            small_dataset,
            BuildConfig(similarity_threshold=0.1, min_length=4, max_length=6),
        )
        with pytest.raises(NotBuiltError):
            base.stats
        with pytest.raises(NotBuiltError):
            base.lengths

    def test_empty_dataset_rejected(self):
        with pytest.raises(DatasetError, match="empty"):
            OnexBase(
                TimeSeriesDataset(),
                BuildConfig(similarity_threshold=0.1, min_length=2, max_length=4),
            )

    def test_length_range_outside_data(self, small_dataset):
        base = OnexBase(
            small_dataset,
            BuildConfig(similarity_threshold=0.1, min_length=100, max_length=120),
        )
        with pytest.raises(DatasetError, match="no subsequences"):
            base.build()

    def test_normalized_dataset_used(self, built_base):
        lo, hi = built_base.dataset.global_bounds()
        assert lo == pytest.approx(0.0)
        assert hi == pytest.approx(1.0)

    def test_normalize_false_keeps_raw(self, small_dataset):
        base = OnexBase(
            small_dataset,
            BuildConfig(
                similarity_threshold=0.5, min_length=4, max_length=5, normalize=False
            ),
        )
        base.build()
        assert base.dataset is base.raw_dataset

    def test_tighter_threshold_more_groups(self, small_dataset):
        tight = OnexBase(
            small_dataset,
            BuildConfig(similarity_threshold=0.02, min_length=4, max_length=6),
        )
        loose = OnexBase(
            small_dataset,
            BuildConfig(similarity_threshold=0.4, min_length=4, max_length=6),
        )
        assert tight.build().groups > loose.build().groups

    def test_step_reduces_subsequences(self, small_dataset):
        dense = OnexBase(
            small_dataset,
            BuildConfig(similarity_threshold=0.1, min_length=4, max_length=6),
        ).build()
        strided = OnexBase(
            small_dataset,
            BuildConfig(similarity_threshold=0.1, min_length=4, max_length=6, step=2),
        ).build()
        assert strided.subsequences < dense.subsequences


class TestPersistence:
    def test_save_load_round_trip(self, built_base, small_dataset, tmp_path):
        path = tmp_path / "base"
        built_base.save(path)
        loaded = OnexBase.load(path)
        assert loaded.lengths == built_base.lengths
        assert loaded.stats.groups == built_base.stats.groups
        for length in built_base.lengths:
            a, b = built_base.bucket(length), loaded.bucket(length)
            assert np.allclose(a.centroids, b.centroids)
            assert np.allclose(a.ed_radii, b.ed_radii)
            assert np.allclose(a.cheb_radii, b.cheb_radii)
            for ga, gb in zip(a.groups, b.groups):
                assert ga.members == gb.members
        loaded.validate()

    def test_load_rejects_wrong_dataset(self, built_base, tmp_path):
        """A snapshot carries its own dataset; one whose arrays were
        swapped for another dataset's is refused, not silently bound."""
        path = tmp_path / "base"
        built_base.save(path)
        other = OnexBase(
            TimeSeriesDataset([TimeSeries("x", [1.0, 2.0, 3.0, 4.0, 5.0] * 3)]),
            built_base.config,
        )
        other.build()
        other.save(tmp_path / "other")
        (tmp_path / "other" / "arrays.bin").replace(path / "arrays.bin")
        with pytest.raises(PersistenceError):
            OnexBase.load(path)

    def test_loaded_base_carries_its_dataset(self, built_base, small_dataset, tmp_path):
        built_base.save(tmp_path / "base")
        loaded = OnexBase.load(tmp_path / "base")
        assert loaded.raw_dataset.name == small_dataset.name
        assert loaded.raw_dataset.names == small_dataset.names
        for a, b in zip(loaded.raw_dataset, small_dataset):
            assert np.array_equal(a.values, b.values)
        for a, b in zip(loaded.dataset, built_base.dataset):
            assert np.array_equal(a.values, b.values)
        assert loaded.normalization_bounds == built_base.normalization_bounds
        assert not loaded.read_only

    def test_save_unbuilt_raises(self, small_dataset, tmp_path):
        base = OnexBase(
            small_dataset,
            BuildConfig(similarity_threshold=0.1, min_length=4, max_length=6),
        )
        with pytest.raises(NotBuiltError):
            base.save(tmp_path / "nope")


class TestBuildConfigValidation:
    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValidationError):
            BuildConfig(similarity_threshold=0.0, min_length=2, max_length=4)

    def test_rejects_tiny_min_length(self):
        with pytest.raises(ValidationError):
            BuildConfig(similarity_threshold=0.1, min_length=1, max_length=4)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValidationError):
            BuildConfig(similarity_threshold=0.1, min_length=5, max_length=4)

    def test_rejects_bad_step(self):
        with pytest.raises(ValidationError):
            BuildConfig(similarity_threshold=0.1, min_length=2, max_length=4, step=0)

    def test_group_radius_is_half_st(self):
        cfg = BuildConfig(similarity_threshold=0.3, min_length=2, max_length=4)
        assert cfg.group_radius == pytest.approx(0.15)


class TestOnMatters:
    def test_builds_on_matters_slice(self):
        ds = build_matters_collection(
            indicators=("GrowthRate",), years=12, min_years=6, seed=77
        )
        base = OnexBase(
            ds, BuildConfig(similarity_threshold=0.08, min_length=4, max_length=6)
        )
        stats = base.build()
        assert stats.compaction_ratio > 2.0
        base.validate()
