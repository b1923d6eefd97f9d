"""Unit tests for the embedding searcher baseline."""

import numpy as np
import pytest

from repro.baselines.embedding import EmbeddingSearcher
from repro.data.dataset import TimeSeriesDataset
from repro.distances.dtw import dtw_path
from repro.exceptions import ValidationError


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(131)
    ds = TimeSeriesDataset.from_arrays(
        [rng.normal(size=n).cumsum() for n in (30, 24, 28)], name="embedding"
    )
    return ds.normalized()


class TestEmbeddingSearcher:
    def test_self_query_found(self, dataset):
        searcher = EmbeddingSearcher(
            dataset, [8], references=6, verify_fraction=0.2, seed=1
        )
        ref = next(iter(dataset.iter_subsequences(8)))
        match = searcher.best_match(dataset.values(ref))
        assert match.distance == pytest.approx(0.0, abs=1e-12)

    def test_reasonable_retrieval_quality(self, dataset):
        """Verified-fraction search should come close to the true best."""
        rng = np.random.default_rng(135)
        searcher = EmbeddingSearcher(
            dataset, [8], references=8, verify_fraction=0.3, seed=2
        )
        regrets = []
        for _ in range(5):
            q = rng.uniform(size=8)
            match = searcher.best_match(q)
            true_best = min(
                dtw_path(q, dataset.values(ref)).normalized_distance
                for ref in dataset.iter_subsequences(8)
            )
            assert match.distance >= true_best - 1e-12
            regrets.append(match.distance - true_best)
        assert np.mean(regrets) < 0.1

    def test_verifies_only_fraction(self, dataset):
        searcher = EmbeddingSearcher(
            dataset, [8], references=4, verify_fraction=0.1, seed=3
        )
        searcher.best_match(np.linspace(0, 1, 8))
        stats = searcher.last_stats
        assert stats.verified <= max(1, int(np.ceil(0.1 * searcher.size)))
        assert stats.candidates == searcher.size

    def test_multiple_lengths_indexed(self, dataset):
        searcher = EmbeddingSearcher(
            dataset, [6, 8], references=4, verify_fraction=0.2, seed=4
        )
        expected = sum(
            len(list(dataset.iter_subsequences(n))) for n in (6, 8)
        )
        assert searcher.size == expected

    def test_validation(self, dataset):
        with pytest.raises(ValidationError):
            EmbeddingSearcher(TimeSeriesDataset(), [8])
        with pytest.raises(ValidationError):
            EmbeddingSearcher(dataset, [8], references=0)
        with pytest.raises(ValidationError):
            EmbeddingSearcher(dataset, [8], verify_fraction=0.0)
        with pytest.raises(ValidationError):
            EmbeddingSearcher(dataset, [999])
