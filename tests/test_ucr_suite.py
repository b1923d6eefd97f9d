"""Unit tests for repro.baselines.ucr_suite."""

import math

import numpy as np
import pytest

from repro.baselines.ucr_suite import UcrSuiteSearcher
from repro.data.dataset import TimeSeriesDataset
from repro.distances.dtw import dtw_distance
from repro.distances.normalize import znormalize
from repro.exceptions import ValidationError


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(121)
    return TimeSeriesDataset.from_arrays(
        [rng.normal(size=n).cumsum() for n in (40, 35, 30)], name="ucr"
    )


def naive_znorm_best(dataset, query, radius):
    """Reference implementation: z-normalised banded squared DTW scan."""
    q = znormalize(query)
    m = len(q)
    best = (math.inf, None)
    for si, series in enumerate(dataset):
        values = series.values
        for start in range(len(series) - m + 1):
            c = znormalize(values[start : start + m])
            sq = dtw_distance(q, c, window=radius, ground="squared")
            best = min(best, (sq, (si, start)))
    return best


class TestCorrectness:
    def test_matches_naive_scan(self, dataset):
        rng = np.random.default_rng(122)
        searcher = UcrSuiteSearcher(dataset, band_fraction=0.1)
        for _ in range(4):
            q = rng.normal(size=12).cumsum()
            match = searcher.best_match(q)
            radius = int(0.1 * 12)
            sq, (si, start) = naive_znorm_best(dataset, q, radius)
            assert match.squared_distance == pytest.approx(sq)
            assert (match.ref.series_index, match.ref.start) == (si, start)

    def test_exact_snippet_found(self, dataset):
        """A verbatim snippet of the data must match itself (distance 0)."""
        searcher = UcrSuiteSearcher(dataset)
        snippet = dataset[1].values[5:17]
        match = searcher.best_match(snippet)
        assert match.squared_distance == pytest.approx(0.0, abs=1e-18)
        assert match.ref.series_index == 1
        assert match.ref.start == 5

    def test_scale_and_offset_invariance(self, dataset):
        """Z-normalisation makes the suite blind to affine changes."""
        searcher = UcrSuiteSearcher(dataset)
        snippet = dataset[0].values[3:15]
        shifted = snippet * 37.5 - 1200.0
        match = searcher.best_match(shifted)
        assert match.squared_distance == pytest.approx(0.0, abs=1e-15)
        assert match.ref.start == 3

    def test_distance_property(self, dataset):
        searcher = UcrSuiteSearcher(dataset)
        match = searcher.best_match(dataset[0].values[:10])
        assert match.distance == pytest.approx(math.sqrt(match.squared_distance))


class TestPruning:
    def test_cascade_prunes_most_candidates(self, dataset):
        rng = np.random.default_rng(123)
        searcher = UcrSuiteSearcher(dataset)
        searcher.best_match(rng.normal(size=14).cumsum())
        stats = searcher.last_stats
        assert stats.candidates > 0
        pruned = (
            stats.kim_prunes + stats.keogh_eq_prunes + stats.keogh_ec_prunes + stats.dtw_abandons
        )
        assert pruned > 0.3 * stats.candidates
        assert stats.dtw_calls + stats.dtw_abandons <= stats.candidates

    def test_stats_partition_candidates(self, dataset):
        rng = np.random.default_rng(124)
        searcher = UcrSuiteSearcher(dataset)
        searcher.best_match(rng.normal(size=10).cumsum())
        s = searcher.last_stats
        total = (
            s.kim_prunes + s.keogh_eq_prunes + s.keogh_ec_prunes
            + s.dtw_abandons + s.dtw_calls
        )
        assert total == s.candidates


class TestEdgeCases:
    def test_flat_windows_handled(self):
        ds = TimeSeriesDataset.from_arrays(
            [np.concatenate([np.full(10, 3.0), np.arange(10.0)])], name="flat"
        )
        searcher = UcrSuiteSearcher(ds)
        match = searcher.best_match(np.full(5, 7.0))
        # A flat query z-normalises to zeros and matches a flat window.
        assert match.squared_distance == pytest.approx(0.0, abs=1e-15)
        assert match.ref.start <= 5

    def test_band_zero(self, dataset):
        searcher = UcrSuiteSearcher(dataset, band_fraction=0.0)
        snippet = dataset[2].values[0:10]
        match = searcher.best_match(snippet)
        assert match.squared_distance == pytest.approx(0.0, abs=1e-18)

    def test_query_longer_than_all_series(self, dataset):
        searcher = UcrSuiteSearcher(dataset)
        with pytest.raises(ValidationError, match="no window"):
            searcher.best_match(np.arange(100.0))

    def test_validation(self, dataset):
        with pytest.raises(ValidationError):
            UcrSuiteSearcher(TimeSeriesDataset())
        with pytest.raises(ValidationError):
            UcrSuiteSearcher(dataset, band_fraction=1.5)
        with pytest.raises(ValidationError):
            UcrSuiteSearcher(dataset).best_match([1.0])
