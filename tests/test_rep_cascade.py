"""Representative-layer cascade, banded/paired kernels, and batch queries.

Property tests for the PR-3 surface: the batch kernel (native and NumPy,
through the ``kernel_backend`` fixture) is bit-identical to the row-scan
oracle ``dtw_path`` at every window radius, the representative table's cheap bounds provably
lower-bound DTW at every band, rank pruning is result-preserving
(windowed or not: the real bounds against the zero-bound witness and,
in exact mode, brute force), and the multi-query execution layer returns
exactly what per-query submission returns.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import BruteForceSearcher
from repro.core.base import LengthBucket, OnexBase, RepresentativeTable
from repro.core.config import BuildConfig, QueryConfig
from repro.core.mmap_layout import load_base_snapshot, save_base_snapshot
import repro.core.query as query_module
from repro.core.query import QueryProcessor, QueryStats, _LazyOrder
from repro.data.dataset import TimeSeriesDataset
from repro.distances.dtw import (
    dtw_distance,
    dtw_distance_batch,
    dtw_path,
    effective_band,
)
from repro.distances.envelope import keogh_envelope, keogh_envelope_batch
from repro.distances.lower_bounds import (
    lb_kim_batch,
    lb_kim_endpoints_batch,
)
from repro.exceptions import ValidationError
from repro.stream.ingest import StreamIngestor

finite_floats = st.floats(min_value=-25.0, max_value=25.0, allow_nan=False)


def sequences(min_size=1, max_size=10):
    return st.lists(finite_floats, min_size=min_size, max_size=max_size)


def assert_rows_match_oracle(got, x, mat, window):
    """Distances and path lengths of a batch result equal ``dtw_path``'s."""
    got_d, got_p = got
    for i, row in enumerate(mat):
        want = dtw_path(x[i] if np.ndim(x) == 2 else x, row, window=window)
        assert got_d[i] == want.distance
        assert got_p[i] == want.path_length


#: The backend fixture is set once per test, not per Hypothesis example.
per_backend = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.mark.usefixtures("kernel_backend")
class TestKernels:
    """``dtw_distance_batch`` equals the row-scan oracle ``dtw_path``."""

    @given(
        x=sequences(),
        rows=st.lists(sequences(min_size=4, max_size=4), min_size=1, max_size=4),
    )
    @settings(per_backend, max_examples=100)
    def test_kernel_matches_oracle_for_every_radius(self, x, rows):
        a = np.asarray(x)
        mat = np.asarray(rows)
        n, m = a.shape[0], mat.shape[1]
        for window in range(0, n + m):
            assert_rows_match_oracle(
                dtw_distance_batch(a, mat, window=window, with_path_length=True),
                a, mat, window,
            )

    @given(
        pairs=st.lists(
            st.tuples(sequences(min_size=5, max_size=5), sequences(min_size=7, max_size=7)),
            min_size=1,
            max_size=5,
        ),
        window=st.one_of(st.none(), st.integers(min_value=0, max_value=10)),
    )
    @settings(per_backend, max_examples=75)
    def test_paired_mode_matches_per_pair(self, pairs, window):
        X = np.asarray([p[0] for p in pairs])
        M = np.asarray([p[1] for p in pairs])
        assert_rows_match_oracle(
            dtw_distance_batch(X, M, window=window, with_path_length=True),
            X, M, window,
        )

    def test_paired_mode_row_count_mismatch(self):
        with pytest.raises(ValidationError):
            dtw_distance_batch(np.ones((3, 4)), np.ones((2, 4)))


class TestRepresentativeSummary:
    """The pieces of ``RepresentativeTable.cheap_bounds`` — the one
    function combining LB_Kim endpoints with a band bound — and the bound
    itself."""

    @given(
        rows=st.lists(sequences(min_size=6, max_size=6), min_size=1, max_size=6),
        radius=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=75, deadline=None)
    def test_envelope_batch_matches_scalar(self, rows, radius):
        mat = np.asarray(rows)
        lo, hi = keogh_envelope_batch(mat, radius)
        for g in range(mat.shape[0]):
            want_lo, want_hi = keogh_envelope(mat[g], radius)
            assert np.array_equal(lo[g], want_lo)
            assert np.array_equal(hi[g], want_hi)

    @given(
        x=sequences(min_size=2, max_size=9),
        rows=st.lists(sequences(min_size=5, max_size=5), min_size=1, max_size=5),
    )
    @settings(max_examples=75, deadline=None)
    def test_kim_endpoints_matches_full_stack(self, x, rows):
        mat = np.asarray(rows)
        endpoints = mat[:, [0, 1, -2, -1]]
        got = lb_kim_endpoints_batch(x, endpoints, mat.shape[1])
        assert np.array_equal(got, lb_kim_batch(x, mat))

    @given(
        # Half the draws have the rows' own length, where the exact-band
        # centroid envelopes engage.
        x=st.one_of(sequences(min_size=6, max_size=6), sequences(min_size=2, max_size=8)),
        rows=st.lists(sequences(min_size=6, max_size=6), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_cheap_bounds_never_exceed_dtw(self, x, rows):
        """The table bounds provably lower-bound DTW at *every* band."""
        mat = np.asarray(rows)
        count, length = mat.shape
        bucket = LengthBucket(
            length,
            np.zeros((count, 2), dtype=np.int64),
            np.arange(count + 1),
            mat,
            mat,
            np.zeros(count),
            np.zeros(count),
            writable=False,
        )
        table = RepresentativeTable([bucket])
        q = np.asarray(x)
        for window in (None, *range(9)):
            band = effective_band(q.shape[0], length, window)
            bounds = table.cheap_bounds(q, band=band)
            for g in range(count):
                exact = dtw_distance(q, mat[g], window=window)
                assert bounds[g] <= exact + 1e-9, (window, g)


def build_walk_base() -> OnexBase:
    rng = np.random.default_rng(71)
    arrays = [rng.normal(size=n).cumsum() for n in (30, 26, 22, 28)]
    dataset = TimeSeriesDataset.from_arrays(arrays, name="cascade-walks")
    base = OnexBase(
        dataset, BuildConfig(similarity_threshold=0.08, min_length=5, max_length=9)
    )
    base.build()
    return base


@pytest.fixture(scope="module")
def walk_base():
    return build_walk_base()


class ZeroBoundProcessor(QueryProcessor):
    """The witness (DESIGN.md §1): the one lazy path under the trivial
    sound bound, which verifies every representative up front."""

    def _rank_bounds(self, q, reps):
        return np.zeros(reps.gids.size)


#: ``rep_dtw_calls`` summed over ``_windowed_queries()`` when the
#: envelopes had one persisted radius (1 at these lengths): used for
#: bands <= 1, min/max band only beyond.  The exact-band envelope may
#: only lower them.
_PARENT_REP_DTW_CALLS = {
    (0, "exact"): 1255, (0, "fast"): 624,
    (1, "exact"): 1248, (1, "fast"): 624,
    (2, "exact"): 1286, (2, "fast"): 656,
    (5, "exact"): 1214, (5, "fast"): 656,
}  # fmt: skip


def _windowed_queries() -> list[np.ndarray]:
    rng = np.random.default_rng(77)
    return [rng.uniform(size=n) for n in (5, 6, 7, 8, 9, 6, 7)]


def _answer(matches) -> list[tuple]:
    return [(m.ref, m.distance, m.raw_distance, m.path) for m in matches]


def _run(processor, operation, queries):
    """One answer per query, and the work counters summed over them."""
    if operation == "batch_matches":
        return processor.batch_matches(queries, 3, normalize=False), processor.last_stats
    answers, counters = [], []
    for q in queries:
        if operation == "k_best":
            answers.append(processor.k_best_matches(q, 3, normalize=False))
        else:
            answers.append(processor.matches_within(q, 0.06, normalize=False))
        counters.append(processor.last_stats.as_dict())
    return answers, QueryStats(**{f: sum(c[f] for c in counters) for f in counters[0]})


class TestRankPruningChangesNoAnswer:
    @pytest.mark.parametrize("operation", ["k_best", "matches_within", "batch_matches"])
    @pytest.mark.parametrize("mode", ["exact", "fast"])
    @pytest.mark.parametrize("window", [None, 0, 1, 2, 5])
    def test_real_bound_equals_zero_bound(
        self, walk_base, window, mode, operation, monkeypatch
    ):
        """The rank bound is a property of the one path: with the real
        bounds and with all-zero bounds every driver returns the same
        matches — distances, raw costs and warping paths included — the
        zero bound verifies every representative, the real one never
        more, and in exact mode both are the brute-force scan's answer.
        Under a finite band the real bound costs no more representative
        DTW than the fixed-radius envelopes did."""
        # Blocks of 8 make this base's few hundred groups span as many
        # blocks of the lazy order as a served base's 1024-row ones do.
        monkeypatch.setattr(query_module, "_LazyOrder", partial(_LazyOrder, block=8))
        config = QueryConfig(mode=mode, window=window, refine_groups=3)
        queries = _windowed_queries()
        got, real = _run(QueryProcessor(walk_base, config), operation, queries)
        want, zero = _run(ZeroBoundProcessor(walk_base, config), operation, queries)
        assert [_answer(a) for a in got] == [_answer(a) for a in want]
        assert zero.rep_dtw_calls == zero.representatives_total
        assert real.rep_dtw_calls <= zero.rep_dtw_calls
        assert real.representatives_total == zero.representatives_total
        if mode == "exact" or operation == "matches_within":
            # Fast k-best is approximate by design; the range query is
            # exact in either mode.
            oracle = BruteForceSearcher(walk_base.dataset)
            k = walk_base.stats.subsequences if operation == "matches_within" else 3
            for q, answer in zip(queries, got):
                truth = oracle.k_best_matches(q, k, walk_base.lengths, window=window)
                if operation == "matches_within":
                    truth = [m for m in truth if m.distance <= 0.06]
                assert _answer(answer) == _answer(truth)
        if operation == "k_best" and window is not None:
            assert real.rep_dtw_calls <= _PARENT_REP_DTW_CALLS[window, mode]

    def test_real_bound_skips_representative_dtw(self, walk_base):
        rng = np.random.default_rng(11)
        processor = QueryProcessor(walk_base, QueryConfig(mode="exact"))
        skipped = 0
        for _ in range(5):
            processor.best_match(rng.uniform(size=6), normalize=False)
            stats = processor.last_stats
            assert (
                stats.rep_dtw_calls + stats.rep_dtw_skipped
                <= stats.representatives_total
            )
            skipped += stats.rep_dtw_skipped
        assert skipped > 0, "the rank bound never skipped a representative DTW"


class TestBatchMatches:
    @pytest.mark.parametrize(
        "config",
        [
            QueryConfig(mode="exact"),
            QueryConfig(mode="exact", use_group_pruning=False),
            QueryConfig(mode="fast", refine_groups=2),
        ],
        ids=["exact", "no-pruning", "fast"],
    )
    def test_batch_identical_to_sequential(self, walk_base, config):
        rng = np.random.default_rng(13)
        queries = [rng.uniform(size=n) for n in (6, 6, 7, 5, 9, 6)]
        processor = QueryProcessor(walk_base, config)
        want = [processor.k_best_matches(q, 3, normalize=False) for q in queries]
        got = processor.batch_matches(queries, 3, normalize=False)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert [(m.ref, m.distance) for m in a] == [
                (m.ref, m.distance) for m in b
            ]
        assert processor.last_stats.batch_queries == len(queries)

    def test_batch_empty(self, walk_base):
        processor = QueryProcessor(walk_base, QueryConfig(mode="exact"))
        assert processor.batch_matches([]) == []
        assert processor.last_stats.batch_queries == 0

    def test_batch_invalid_k(self, walk_base):
        with pytest.raises(ValidationError):
            QueryProcessor(walk_base).batch_matches([[0.1, 0.2]], 0)

    def test_batch_respects_lengths_restriction(self, walk_base):
        rng = np.random.default_rng(14)
        processor = QueryProcessor(walk_base, QueryConfig(mode="exact"))
        results = processor.batch_matches(
            [rng.uniform(size=6) for _ in range(3)], 2, lengths=[5], normalize=False
        )
        assert all(m.length == 5 for matches in results for m in matches)


@pytest.mark.usefixtures("kernel_backend")
class TestReturnedPaths:
    """Every ``Match.path`` a driver returns — traced by one batched call
    per answer — is the scalar oracle's path of that (query, member) pair."""

    @staticmethod
    def assert_paths_are_the_oracles(base: OnexBase, window: int | None) -> None:
        queries = _windowed_queries()
        checked = 0
        for mode in ("exact", "fast"):
            processor = QueryProcessor(
                base, QueryConfig(mode=mode, window=window, refine_groups=3)
            )
            answers = [processor.k_best_matches(q, 4, normalize=False) for q in queries]
            answers += [processor.matches_within(q, 0.06, normalize=False) for q in queries]
            answers += processor.batch_matches(queries, 2, normalize=False)
            for q, matches in zip(queries * 3, answers):
                for m in matches:
                    want = dtw_path(q, base.member_values(m.ref), window=window)
                    assert m.path == want.path
                    assert m.raw_distance == want.distance
                    checked += 1
        assert checked > 12 * len(queries)  # the range queries answered too

    @pytest.mark.parametrize("window", [None, 1, 3])
    def test_on_a_built_base(self, walk_base, window):
        self.assert_paths_are_the_oracles(walk_base, window)

    @pytest.mark.parametrize("window", [None, 1, 3])
    def test_after_append_points(self, window):
        base = build_walk_base()
        ingestor = StreamIngestor(base)
        rng = np.random.default_rng(72)
        ingestor.append_points(base.raw_dataset[1].name, rng.normal(size=4).cumsum())
        ingestor.append_points("live", rng.normal(size=12).cumsum())
        self.assert_paths_are_the_oracles(base, window)

    @pytest.mark.parametrize("window", [None, 1, 3])
    def test_on_an_mmap_attached_base(self, walk_base, tmp_path, window):
        epoch = save_base_snapshot(walk_base, tmp_path / "epoch-1")
        attached, _ = load_base_snapshot(epoch, mmap_mode="r")
        self.assert_paths_are_the_oracles(attached, window)
