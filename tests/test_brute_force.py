"""Unit tests for repro.baselines.brute_force."""

import numpy as np
import pytest

from repro.baselines.brute_force import BruteForceSearcher
from repro.data.dataset import TimeSeriesDataset
from repro.distances.dtw import dtw_path
from repro.exceptions import ValidationError


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(111)
    ds = TimeSeriesDataset.from_arrays(
        [rng.normal(size=n).cumsum() for n in (18, 15, 20)], name="bf"
    )
    return ds.normalized()


def naive_best(dataset, q, lengths, k=None):
    """The best ``(distance, ref)``, or the *k* best, by a ``dtw_path`` scan."""
    scan = sorted(
        (dtw_path(q, dataset.values(ref)).normalized_distance, ref)
        for length in lengths
        for ref in dataset.iter_subsequences(length)
    )
    return scan[0] if k is None else scan[:k]


class TestBruteForce:
    def test_matches_naive_scan(self, dataset):
        rng = np.random.default_rng(112)
        searcher = BruteForceSearcher(dataset)
        for _ in range(5):
            q = rng.uniform(size=6)
            match = searcher.best_match(q, [5, 6, 7])
            dist, ref = naive_best(dataset, q, [5, 6, 7])
            assert match.distance == pytest.approx(dist)
            assert match.ref == ref

    def test_k_best_equals_naive_scan(self, dataset):
        rng = np.random.default_rng(113)
        q = rng.uniform(size=6)
        matches = BruteForceSearcher(dataset).k_best_matches(q, 3, [5, 6])
        want = naive_best(dataset, q, [5, 6], k=3)
        assert [(m.distance, m.ref) for m in matches] == want

    def test_batch_verifies_few_candidates(self, dataset):
        rng = np.random.default_rng(117)
        q = rng.uniform(size=6)
        searcher = BruteForceSearcher(dataset)
        searcher.best_match(q, [5, 6, 7])
        stats = searcher.last_stats
        assert stats.dtw_calls < stats.candidates

    def test_k_best_ordering(self, dataset):
        rng = np.random.default_rng(115)
        q = rng.uniform(size=5)
        matches = BruteForceSearcher(dataset).k_best_matches(q, 4, [5])
        dists = [m.distance for m in matches]
        assert dists == sorted(dists)
        assert len({m.ref for m in matches}) == 4

    def test_self_query_zero(self, dataset):
        q = dataset.values(next(iter(dataset.iter_subsequences(6))))
        match = BruteForceSearcher(dataset).best_match(q, [6])
        assert match.distance == pytest.approx(0.0, abs=1e-12)

    def test_window_supported(self, dataset):
        rng = np.random.default_rng(116)
        q = rng.uniform(size=6)
        banded = BruteForceSearcher(dataset).best_match(q, [6], window=1)
        free = BruteForceSearcher(dataset).best_match(q, [6])
        assert banded.distance >= free.distance - 1e-12

    def test_validation(self, dataset):
        searcher = BruteForceSearcher(dataset)
        with pytest.raises(ValidationError):
            searcher.k_best_matches([1.0, 2.0], 0, [5])
        with pytest.raises(ValidationError):
            searcher.best_match([1.0, 2.0], [])
        with pytest.raises(ValidationError):
            searcher.best_match([1.0, 2.0], [999])
        with pytest.raises(ValidationError):
            BruteForceSearcher(TimeSeriesDataset())
