"""Unit tests for repro.data.dataset."""

import numpy as np
import pytest

from repro.data.dataset import SubsequenceRef, TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.exceptions import DatasetError, ValidationError


def make_dataset():
    return TimeSeriesDataset(
        [
            TimeSeries("a", [0.0, 1.0, 2.0, 3.0]),
            TimeSeries("b", [10.0, 11.0, 12.0]),
            TimeSeries("c", [5.0, 5.0]),
        ],
        name="toy",
    )


class TestCollectionBasics:
    def test_len_and_iteration(self):
        ds = make_dataset()
        assert len(ds) == 3
        assert [s.name for s in ds] == ["a", "b", "c"]

    def test_lookup_by_name_and_index(self):
        ds = make_dataset()
        assert ds["b"].values.tolist() == [10.0, 11.0, 12.0]
        assert ds[0].name == "a"
        assert ds.index_of("c") == 2

    def test_contains(self):
        ds = make_dataset()
        assert "a" in ds
        assert "zzz" not in ds

    def test_unknown_name_raises(self):
        ds = make_dataset()
        with pytest.raises(DatasetError, match="zzz"):
            ds["zzz"]
        with pytest.raises(DatasetError):
            ds.index_of("zzz")

    def test_duplicate_name_rejected(self):
        ds = make_dataset()
        with pytest.raises(DatasetError, match="duplicate"):
            ds.add(TimeSeries("a", [1.0]))

    def test_add_non_series_rejected(self):
        ds = make_dataset()
        with pytest.raises(ValidationError, match="TimeSeries"):
            ds.add([1.0, 2.0])

    def test_from_arrays_autonames(self):
        ds = TimeSeriesDataset.from_arrays([[1.0], [2.0, 3.0]])
        assert ds.names == ["series-0", "series-1"]

    def test_from_arrays_explicit_names(self):
        ds = TimeSeriesDataset.from_arrays([[1.0]], names=["only"])
        assert ds.names == ["only"]


class TestNormalization:
    def test_global_bounds(self):
        assert make_dataset().global_bounds() == (0.0, 12.0)

    def test_normalized_shares_bounds(self):
        ds = make_dataset().normalized()
        assert ds["a"].values.min() == 0.0
        assert ds["b"].values.max() == 1.0
        # 'c' is flat at 5.0 within global bounds [0, 12] -> 5/12.
        assert ds["c"].values[0] == pytest.approx(5.0 / 12.0)

    def test_normalized_preserves_names_and_count(self):
        ds = make_dataset().normalized()
        assert ds.names == ["a", "b", "c"]

    def test_empty_dataset_bounds_raise(self):
        with pytest.raises(DatasetError, match="empty"):
            TimeSeriesDataset().global_bounds()


class TestSubsequences:
    def test_iter_subsequences_counts(self):
        ds = make_dataset()
        refs = list(ds.iter_subsequences(2))
        # a: 3 windows, b: 2 windows, c: 1 window.
        assert len(refs) == 6

    def test_iter_respects_step(self):
        ds = make_dataset()
        refs = list(ds.iter_subsequences(2, step=2))
        starts = [(r.series_index, r.start) for r in refs]
        assert starts == [(0, 0), (0, 2), (1, 0), (2, 0)]

    def test_values_resolve(self):
        ds = make_dataset()
        ref = SubsequenceRef(1, 1, 2)
        assert ds.values(ref).tolist() == [11.0, 12.0]

    def test_values_bad_series_index(self):
        ds = make_dataset()
        with pytest.raises(DatasetError, match="out of range"):
            ds.values(SubsequenceRef(9, 0, 1))

    def test_count_subsequences_matches_enumeration(self):
        ds = make_dataset()
        for n in (2, 3):
            matrix, refs = ds.subsequence_matrix(n)
            assert matrix.shape[0] == len(refs) == len(list(ds.iter_subsequences(n)))
        assert sum(ds.subsequence_matrix(n)[0].shape[0] for n in (2, 3)) == 9

    def test_count_subsequences_handles_long_lengths(self):
        ds = make_dataset()
        # A length above every series length is fine: no rows.
        assert ds.subsequence_matrix(4)[0].shape[0] == 1  # only 'a' has length 4
        assert ds.subsequence_matrix(10)[0].shape[0] == 0

    def test_count_rejects_bad_range(self):
        for length, step in ((0, 1), (-2, 1), (2, 0)):
            with pytest.raises(ValidationError):
                make_dataset().subsequence_matrix(length, step=step)

    def test_subsequence_matrix(self):
        ds = make_dataset()
        matrix, refs = ds.subsequence_matrix(3)
        assert matrix.shape == (3, 3)  # two from 'a', one from 'b'
        for row, ref in zip(matrix, refs):
            assert row.tolist() == ds.values(ref).tolist()

    def test_subsequence_matrix_empty(self):
        ds = make_dataset()
        matrix, refs = ds.subsequence_matrix(99)
        assert matrix.shape == (0, 99)
        assert refs == []

    def test_invalid_length_rejected(self):
        with pytest.raises(ValidationError):
            list(make_dataset().iter_subsequences(0))

    def test_invalid_step_rejected(self):
        with pytest.raises(ValidationError):
            list(make_dataset().iter_subsequences(2, step=0))


class TestSubsequenceRef:
    def test_overlap_same_series(self):
        a = SubsequenceRef(0, 0, 5)
        b = SubsequenceRef(0, 4, 5)
        c = SubsequenceRef(0, 5, 5)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_no_overlap_across_series(self):
        a = SubsequenceRef(0, 0, 5)
        b = SubsequenceRef(1, 0, 5)
        assert not a.overlaps(b)

    def test_ordering(self):
        assert SubsequenceRef(0, 1, 2) < SubsequenceRef(0, 2, 2) < SubsequenceRef(1, 0, 2)

    def test_stop(self):
        assert SubsequenceRef(0, 3, 4).stop == 7


class TestDescribe:
    def test_summary_fields(self):
        info = make_dataset().describe()
        assert info["series"] == 3
        assert info["total_points"] == 9
        assert info["min_length"] == 2
        assert info["max_length"] == 4
        assert info["value_min"] == 0.0
        assert info["value_max"] == 12.0

    def test_empty_summary(self):
        assert TimeSeriesDataset().describe()["series"] == 0

    def test_length_range(self):
        assert make_dataset().length_range() == (2, 4)
