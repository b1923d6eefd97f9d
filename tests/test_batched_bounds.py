"""Tests for the batched lower-bound cascade and batched member refinement.

Three layers of guarantees are pinned here:

- the batched bounds (`lb_kim_batch`, `lb_keogh_batch`) agree with their
  scalar twins row by row and never exceed true (banded) DTW;
- the batch DTW kernel's tracked path lengths reproduce ``dtw_path``'s
  normalised distances bit for bit;
- the query processor's batched refinement returns matches identical to
  the legacy per-member path on randomised datasets, and the persisted
  member matrices survive a save/load round trip (including archives
  from before the matrices were stored).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import BruteForceSearcher
from repro.core.base import OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.query import QueryProcessor
from repro.data.dataset import TimeSeriesDataset
from repro.distances.dtw import (
    dtw_distance,
    dtw_distance_batch,
    dtw_distance_early_abandon,
    dtw_path,
)
from repro.distances.envelope import QueryEnvelopeCache, keogh_envelope
from repro.distances.lower_bounds import (
    lb_keogh,
    lb_keogh_batch,
    lb_kim,
    lb_kim_batch,
)
from repro.exceptions import ValidationError

finite_floats = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


class TestLbKimBatch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(11)
        for n, m in [(1, 1), (2, 3), (3, 3), (4, 4), (9, 6), (7, 12)]:
            q = rng.normal(size=n)
            rows = rng.normal(size=(15, m))
            got = lb_kim_batch(q, rows)
            for k in range(rows.shape[0]):
                assert got[k] == lb_kim(q, rows[k])

    def test_matches_scalar_squared(self):
        rng = np.random.default_rng(12)
        q = rng.normal(size=8)
        rows = rng.normal(size=(10, 8))
        got = lb_kim_batch(q, rows, ground="squared")
        for k in range(rows.shape[0]):
            assert got[k] == lb_kim(q, rows[k], ground="squared")

    def test_never_exceeds_dtw(self):
        rng = np.random.default_rng(13)
        q = rng.normal(size=7)
        rows = rng.normal(size=(25, 9))
        bounds = lb_kim_batch(q, rows)
        dists = dtw_distance_batch(q, rows)
        assert np.all(bounds <= dists + 1e-12)

    def test_empty_and_validation(self):
        assert lb_kim_batch([1.0, 2.0], np.empty((0, 4))).shape == (0,)
        with pytest.raises(ValidationError, match="2-D"):
            lb_kim_batch([1.0], np.zeros(3))
        with pytest.raises(ValidationError, match="NaN"):
            lb_kim_batch([1.0], np.array([[np.nan]]))


class TestLbKeoghBatch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(21)
        q = rng.normal(size=10)
        rows = rng.normal(size=(20, 10))
        for radius in (0, 2, 9):
            lower, upper = keogh_envelope(q, radius)
            got = lb_keogh_batch(rows, lower, upper)
            for k in range(rows.shape[0]):
                assert got[k] == pytest.approx(
                    lb_keogh(rows[k], lower, upper), abs=1e-12
                )

    def test_never_exceeds_banded_dtw(self):
        rng = np.random.default_rng(22)
        q = rng.normal(size=8)
        rows = rng.normal(size=(30, 8))
        for window in (0, 1, 3, 7):
            lower, upper = keogh_envelope(q, window)
            bounds = lb_keogh_batch(rows, lower, upper)
            dists = dtw_distance_batch(q, rows, window=window)
            assert np.all(bounds <= dists + 1e-9)

    def test_length_mismatch_rejected(self):
        lower, upper = keogh_envelope([0.0, 1.0, 2.0], 1)
        with pytest.raises(ValidationError, match="lengths differ"):
            lb_keogh_batch(np.zeros((2, 4)), lower, upper)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(finite_floats, min_size=2, max_size=8),
    st.lists(
        st.lists(finite_floats, min_size=6, max_size=6), min_size=1, max_size=5
    ),
    st.integers(min_value=0, max_value=5),
)
def test_bounds_below_dtw_property(q, rows, window):
    """Neither batched bound may ever exceed the banded DTW distance."""
    mat = np.asarray(rows)
    dists = dtw_distance_batch(q, mat, window=window)
    kim = lb_kim_batch(q, mat)
    assert np.all(kim <= dists + 1e-9)
    if len(q) == mat.shape[1]:
        qa = np.asarray(q, dtype=np.float64)
        radius = max(window, abs(len(q) - mat.shape[1]))
        lower, upper = keogh_envelope(qa, radius)
        keogh = lb_keogh_batch(mat, lower, upper)
        assert np.all(keogh <= dists + 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(finite_floats, min_size=1, max_size=9),
    st.lists(
        st.lists(finite_floats, min_size=5, max_size=5), min_size=1, max_size=5
    ),
    st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
)
def test_batch_path_lengths_match_traceback(q, rows, window):
    """``raws / plens`` must be bit-identical to dtw_path's normalisation."""
    mat = np.asarray(rows)
    raws, plens = dtw_distance_batch(q, mat, window=window, with_path_length=True)
    for k in range(mat.shape[0]):
        res = dtw_path(q, mat[k], window=window)
        assert raws[k] == res.distance
        assert plens[k] == len(res.path)
        assert raws[k] / plens[k] == res.normalized_distance


class TestEnvelopeCache:
    def test_returns_envelope_and_caches(self):
        q = np.array([0.0, 2.0, 1.0, 3.0])
        cache = QueryEnvelopeCache(q)
        lo, hi = cache.get(1)
        elo, ehi = keogh_envelope(q, 1)
        assert np.array_equal(lo, elo) and np.array_equal(hi, ehi)
        assert cache.get(1)[0] is lo  # same arrays, not recomputed
        cache.get(2)
        assert len(cache) == 2


class TestEarlyAbandonFinalRow:
    def test_final_row_bound_applied(self):
        """A terminal cumulative bound must be able to abandon the last row."""
        x = np.array([0.0, 0.0, 0.0])
        y = np.array([0.0, 0.0, 0.0])
        bound = np.zeros(4)
        bound[3] = 5.0  # claims 5.0 still unpaid after the final row
        assert math.isinf(
            dtw_distance_early_abandon(x, y, 1.0, cumulative_bound=bound)
        )

    def test_zero_terminal_bound_unchanged(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        exact = dtw_distance(x, y)
        suffix = np.zeros(7)
        got = dtw_distance_early_abandon(x, y, exact + 1.0, cumulative_bound=suffix)
        assert got == pytest.approx(exact)


@pytest.fixture(scope="module")
def random_base():
    rng = np.random.default_rng(41)
    arrays = [rng.normal(size=n).cumsum() for n in (34, 30, 26, 28, 32)]
    dataset = TimeSeriesDataset.from_arrays(arrays, name="batched-walks")
    base = OnexBase(
        dataset, BuildConfig(similarity_threshold=0.1, min_length=5, max_length=9)
    )
    base.build()
    return base


def _as_tuples(matches):
    return [(m.ref, m.distance, m.raw_distance, m.path) for m in matches]


class TestRefinementEquivalence:
    """The refinement stage answers to the brute-force scan."""

    def test_exact_k_best_is_brute_force(self, random_base):
        rng = np.random.default_rng(42)
        processor = QueryProcessor(
            random_base, QueryConfig(mode="exact", refine_groups=4)
        )
        oracle = BruteForceSearcher(random_base.dataset)
        for _ in range(6):
            q = rng.uniform(size=7)
            got = processor.k_best_matches(q, 4, normalize=False)
            want = oracle.k_best_matches(q, 4, random_base.lengths)
            assert _as_tuples(got) == _as_tuples(want)

    def test_fast_k_best_reports_true_distances(self, random_base):
        """Fast mode may miss the optimum; what it returns is exact DTW."""
        rng = np.random.default_rng(42)
        processor = QueryProcessor(
            random_base, QueryConfig(mode="fast", refine_groups=4)
        )
        for _ in range(6):
            q = rng.uniform(size=7)
            got = processor.k_best_matches(q, 4, normalize=False)
            assert len(got) == 4
            assert got == sorted(got, key=lambda m: (m.distance, m.ref))
            for m in got:
                want = dtw_path(q, random_base.dataset.values(m.ref))
                assert (m.distance, m.raw_distance, m.path) == (
                    want.normalized_distance,
                    want.distance,
                    want.path,
                )

    def test_k_best_is_brute_force_with_window(self, random_base):
        rng = np.random.default_rng(43)
        oracle = BruteForceSearcher(random_base.dataset)
        for window in (1, 3):
            processor = QueryProcessor(
                random_base, QueryConfig(mode="exact", window=window)
            )
            q = rng.uniform(size=6)
            assert _as_tuples(processor.k_best_matches(q, 3, normalize=False)) == (
                _as_tuples(
                    oracle.k_best_matches(q, 3, random_base.lengths, window=window)
                )
            )

    def test_matches_within_is_brute_force(self, random_base):
        rng = np.random.default_rng(44)
        processor = QueryProcessor(random_base, QueryConfig(mode="exact"))
        oracle = BruteForceSearcher(random_base.dataset)
        everything = random_base.stats.subsequences
        for threshold in (0.02, 0.05, 0.1):
            q = rng.uniform(size=6)
            got = processor.matches_within(q, threshold, normalize=False)
            ranked = oracle.k_best_matches(q, everything, random_base.lengths)
            want = [m for m in ranked if m.distance <= threshold]
            assert _as_tuples(got) == _as_tuples(want)

    def test_stats_consistent_with_work(self, random_base):
        """Counters must add up: every scanned member is pruned or DTW'd."""
        processor = QueryProcessor(random_base, QueryConfig(mode="exact"))
        processor.best_match(np.linspace(0.1, 0.9, 7), normalize=False)
        stats = processor.last_stats
        assert stats.members_scanned > 0
        assert (
            stats.member_lb_prunes + stats.member_dtw_calls <= stats.members_scanned
        )
        assert stats.member_dtw_calls > 0
        assert stats.groups_refined + stats.groups_pruned <= (
            stats.representatives_total
        )


class TestMemberMatrixPersistence:
    def test_round_trip_preserves_member_matrix(self, random_base, tmp_path):
        path = tmp_path / "base"
        random_base.save(path)
        loaded = OnexBase.load(path)
        for length in random_base.lengths:
            a = random_base.bucket(length)
            b = loaded.bucket(length)
            assert np.array_equal(a.member_matrix, b.member_matrix)
            assert np.array_equal(a.member_offsets, b.member_offsets)

    def test_member_rows_match_dataset_values(self, random_base):
        for bucket in random_base.buckets():
            for g_idx, group in enumerate(bucket.groups):
                rows = bucket.member_rows(g_idx)
                assert rows.shape == (group.cardinality, bucket.length)
                for i, ref in enumerate(group.members):
                    assert np.array_equal(
                        rows[i], random_base.member_values(ref)
                    )
