"""Unit and integration tests for repro.core.query."""

import math

import numpy as np
import pytest

from repro.core.base import OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.query import QueryProcessor
from repro.data.dataset import SubsequenceRef, TimeSeriesDataset
from repro.distances.dtw import dtw_path
from repro.exceptions import NotBuiltError, ValidationError


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(71)
    arrays = [rng.normal(size=n).cumsum() for n in (30, 26, 22, 28, 24)]
    return TimeSeriesDataset.from_arrays(arrays, name="query-walks")


@pytest.fixture(scope="module")
def base(dataset):
    b = OnexBase(
        dataset, BuildConfig(similarity_threshold=0.08, min_length=5, max_length=9)
    )
    b.build()
    return b


def brute_best(base, q, lengths=None):
    """Exhaustive scan over all indexed subsequences (ground truth)."""
    best = (math.inf, None)
    for length in lengths or base.lengths:
        for ref in base.dataset.iter_subsequences(length):
            res = dtw_path(q, base.dataset.values(ref))
            best = min(best, (res.normalized_distance, ref))
    return best


class TestBestMatch:
    def test_exact_mode_matches_brute_force(self, base):
        rng = np.random.default_rng(72)
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        for _ in range(5):
            q = rng.normal(size=7).cumsum()
            q = (q - q.min()) / max(q.max() - q.min(), 1e-12)
            match = processor.best_match(q, normalize=False)
            true_dist, true_ref = brute_best(base, q)
            assert match.distance == pytest.approx(true_dist)
            assert match.ref == true_ref

    def test_fast_mode_close_to_brute_force(self, base):
        rng = np.random.default_rng(73)
        processor = QueryProcessor(base, QueryConfig(mode="fast", refine_groups=3))
        gaps = []
        for _ in range(5):
            q = rng.normal(size=7).cumsum()
            q = (q - q.min()) / max(q.max() - q.min(), 1e-12)
            match = processor.best_match(q, normalize=False)
            true_dist, _ = brute_best(base, q)
            assert match.distance >= true_dist - 1e-12
            gaps.append(match.distance - true_dist)
        # Fast mode's slack is bounded by the group radius regime.
        assert max(gaps) <= base.config.similarity_threshold

    def test_indexed_member_query_finds_itself(self, base):
        """Querying with an indexed subsequence must return distance 0."""
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        ref = SubsequenceRef(1, 3, 6)
        match = processor.best_match(ref)
        assert match.distance == pytest.approx(0.0, abs=1e-12)

    def test_fast_mode_self_query_within_threshold(self, base):
        """The paper's §3.2 guarantee: the fast-mode match for an indexed
        sequence is within the similarity threshold ST."""
        processor = QueryProcessor(base, QueryConfig(mode="fast"))
        ref = SubsequenceRef(0, 2, 8)
        match = processor.best_match(ref)
        assert match.distance <= base.config.similarity_threshold

    def test_match_metadata(self, base):
        processor = QueryProcessor(base)
        match = processor.best_match(SubsequenceRef(2, 0, 5))
        assert match.series_name in base.dataset.names
        assert match.length == match.ref.length
        assert match.path[0] == (0, 0)
        assert match.group[0] == match.length

    def test_lengths_restriction(self, base):
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        match = processor.best_match(SubsequenceRef(0, 0, 7), lengths=[5])
        assert match.length == 5

    def test_raw_query_is_normalized(self, base, dataset):
        """Raw-unit queries map into the base's [0,1] value space."""
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        raw_values = dataset[0].values[:7]
        match_raw = processor.best_match(raw_values)
        assert match_raw.distance == pytest.approx(0.0, abs=1e-9)


class TestKBest:
    def test_k_best_sorted_and_distinct(self, base):
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        matches = processor.k_best_matches(SubsequenceRef(0, 1, 6), 5)
        assert len(matches) == 5
        dists = [m.distance for m in matches]
        assert dists == sorted(dists)
        assert len({m.ref for m in matches}) == 5

    def test_k_best_agrees_with_brute_force(self, base):
        rng = np.random.default_rng(74)
        q = rng.uniform(size=6)
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        matches = processor.k_best_matches(q, 3, normalize=False)
        # Brute-force the 3 smallest normalised distances.
        all_d = []
        for length in base.lengths:
            for ref in base.dataset.iter_subsequences(length):
                res = dtw_path(q, base.dataset.values(ref))
                all_d.append(res.normalized_distance)
        all_d.sort()
        for m, expected in zip(matches, all_d[:3]):
            assert m.distance == pytest.approx(expected)

    def test_fast_mode_k_larger_than_refine_groups(self, base):
        processor = QueryProcessor(base, QueryConfig(mode="fast", refine_groups=1))
        matches = processor.k_best_matches(SubsequenceRef(0, 0, 6), 10)
        assert len(matches) == 10

    def test_invalid_k(self, base):
        with pytest.raises(ValidationError):
            QueryProcessor(base).k_best_matches([0.1, 0.2, 0.3], 0)


class TestMatchesWithin:
    def test_returns_all_under_threshold(self, base):
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        q = SubsequenceRef(3, 2, 6)
        threshold = 0.05
        got = processor.matches_within(q, threshold)
        q_values = base.dataset.values(q)
        expected = set()
        for length in base.lengths:
            for ref in base.dataset.iter_subsequences(length):
                res = dtw_path(q_values, base.dataset.values(ref))
                if res.normalized_distance <= threshold:
                    expected.add(ref)
        assert {m.ref for m in got} == expected

    def test_distances_verified(self, base):
        processor = QueryProcessor(base)
        got = processor.matches_within(SubsequenceRef(0, 0, 5), 0.04)
        for m in got:
            assert m.distance <= 0.04 + 1e-12

    def test_sorted_output(self, base):
        processor = QueryProcessor(base)
        got = processor.matches_within(SubsequenceRef(0, 0, 5), 0.06)
        dists = [m.distance for m in got]
        assert dists == sorted(dists)

    def test_invalid_threshold(self, base):
        with pytest.raises(ValidationError):
            QueryProcessor(base).matches_within([0.1, 0.2], 0.0)


class TestStatsAndPruning:
    def test_stats_populated(self, base):
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        processor.best_match(SubsequenceRef(0, 0, 7))
        stats = processor.last_stats
        assert stats.representatives_total > 0
        assert stats.rep_dtw_calls > 0
        assert stats.groups_refined >= 1
        assert stats.member_dtw_calls >= 1

    def test_representative_layer_counters_populated(self, base):
        """The prefilter's counters record real work on a pruning-friendly
        query: representatives skipped without DTW, groups pruned with
        only the cheap bound, and the call/skip split covering the total."""
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        processor.best_match(SubsequenceRef(0, 0, 7))
        stats = processor.last_stats
        assert stats.rep_lb_prunes > 0
        assert stats.rep_dtw_skipped > 0
        assert stats.rep_dtw_calls + stats.rep_dtw_skipped <= stats.representatives_total
        # Threshold queries populate the same layer.
        processor.matches_within(SubsequenceRef(0, 0, 5), 0.04)
        stats = processor.last_stats
        assert stats.rep_lb_prunes > 0
        assert stats.rep_dtw_skipped > 0

    def test_batch_queries_counter_populated(self, base):
        rng = np.random.default_rng(81)
        processor = QueryProcessor(base, QueryConfig(mode="exact"))
        queries = [rng.uniform(size=6) for _ in range(4)]
        single = [processor.best_match(q, normalize=False) for q in queries]
        assert processor.last_stats.batch_queries == 0
        batched = processor.batch_matches(queries, 1, normalize=False)
        assert processor.last_stats.batch_queries == 4
        assert [m[0].ref for m in batched] == [m.ref for m in single]

    @pytest.mark.parametrize(
        ("cpus", "queries", "max_workers", "pool_size"),
        [
            ({0}, 4, None, None),  # pinned to one core: inline
            ({0, 1, 2}, 1, None, None),  # one query: inline
            ({0, 1, 2}, 2, None, 2),  # never more threads than queries
            ({3, 5}, 4, None, 2),  # the mask, not the host's CPU count
            ({0}, 4, 3, 3),  # an explicit size is taken as given
        ],
    )
    def test_batch_fan_out_follows_the_cpu_mask(
        self, base, monkeypatch, cpus, queries, max_workers, pool_size
    ):
        import repro.core.query as query_module

        created = []

        class RecordingPool(query_module.ThreadPoolExecutor):
            def __init__(self, max_workers):
                created.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(
            query_module.os, "sched_getaffinity", lambda pid: cpus, raising=False
        )
        monkeypatch.setattr(query_module.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(query_module, "ThreadPoolExecutor", RecordingPool)
        rng = np.random.default_rng(82)
        qs = [rng.uniform(size=6) for _ in range(queries)]
        processor = QueryProcessor(base, QueryConfig(mode="fast"))
        want = [processor.k_best_matches(q, 2, normalize=False) for q in qs]
        got = processor.batch_matches(qs, 2, normalize=False, max_workers=max_workers)
        assert created == ([] if pool_size is None else [pool_size])
        assert [[m.ref for m in ms] for ms in got] == [[m.ref for m in ms] for ms in want]

    def test_group_pruning_reduces_work(self, base):
        q = SubsequenceRef(1, 1, 7)
        with_pruning = QueryProcessor(
            base, QueryConfig(mode="exact", use_group_pruning=True)
        )
        without = QueryProcessor(
            base, QueryConfig(mode="exact", use_group_pruning=False)
        )
        m1 = with_pruning.best_match(q)
        m2 = without.best_match(q)
        assert m1.distance == pytest.approx(m2.distance)
        assert (
            with_pruning.last_stats.members_scanned
            <= without.last_stats.members_scanned
        )

    def test_pruning_does_not_change_exact_results(self, base):
        rng = np.random.default_rng(75)
        for _ in range(3):
            q = rng.uniform(size=6)
            configs = [
                QueryConfig(mode="exact", use_group_pruning=p, use_lower_bounds=b)
                for p in (True, False)
                for b in (True, False)
            ]
            results = [
                QueryProcessor(base, c).best_match(q, normalize=False) for c in configs
            ]
            for r in results[1:]:
                assert r.distance == pytest.approx(results[0].distance)

    def test_unbuilt_base_rejected(self, dataset):
        unbuilt = OnexBase(
            dataset, BuildConfig(similarity_threshold=0.1, min_length=5, max_length=6)
        )
        with pytest.raises(NotBuiltError):
            QueryProcessor(unbuilt)
