"""The rank stage: one table, one closed-form bound, one lazy order.

Property tests for what the base-wide representative table promises —
it equals the per-bucket summaries row for row through every way a base
changes — and for the three pieces the drivers build on: the closed-form
min/max-band bound (never above the breach-tensor sum it replaced, kept
here as the oracle, and never above DTW), the ragged LB_Kim (each row the
per-length call, bit for bit) and the lazy order (the stable argsort,
element for element).  The threshold driver is held to the brute-force
scan, ``lengths=`` and a fired partial deadline included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import BruteForceSearcher
from repro.core import base as core_base
from repro.core.base import OnexBase, RepresentativeTable
from repro.core.config import BuildConfig, QueryConfig
from repro.core.deadline import CancellationToken, Deadline
from repro.core.mmap_layout import load_base_snapshot, save_base_snapshot
from repro.core.query import QueryProcessor, _LazyOrder
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.distances.dtw import dtw_distance
from repro.distances.lower_bounds import lb_keogh_reverse_batch, lb_kim_endpoints_batch
from repro.exceptions import InvariantError
from repro.stream.ingest import StreamIngestor
from repro.testing import faults

values = st.floats(min_value=-25.0, max_value=25.0, allow_nan=False)


def breach_sum(q: np.ndarray, lo: np.ndarray, hi: np.ndarray, squared: bool) -> np.ndarray:
    """The ``(G, n)`` breach tensor the closed form replaced, summed."""
    breach = np.where(q > hi, q - hi, np.where(q < lo, lo - q, 0.0))
    return (breach * breach if squared else np.abs(breach)).sum(axis=1)


@st.composite
def band_cases(draw):
    """A query and candidate rows, biased towards the closed form's edge
    cases: flat rows (``lo == hi``), a query wholly inside every band,
    wholly outside, and points sitting exactly on a band edge."""
    n = draw(st.integers(min_value=1, max_value=9))
    m = draw(st.integers(min_value=2, max_value=9))
    rows = np.asarray(
        draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=1, max_size=6))
    )
    kind = draw(st.sampled_from(["any", "flat", "inside", "outside", "edges"]))
    if kind == "flat":
        rows[:] = rows[:, :1]
    q = np.asarray(draw(st.lists(values, min_size=n, max_size=n)))
    if kind == "inside":
        q = np.clip(q, rows.min(axis=1).max(), rows.max(axis=1).min())
    elif kind == "outside":
        q = np.abs(q) + rows.max() + 1.0
    elif kind == "edges":
        edges = np.concatenate([rows.min(axis=1), rows.max(axis=1)])
        q = edges[draw(st.lists(st.integers(0, edges.size - 1), min_size=n, max_size=n))]
    return q, rows


class TestClosedFormBand:
    @given(case=band_cases(), ground=st.sampled_from(["l1", "squared"]))
    @settings(max_examples=150, deadline=None)
    def test_never_above_the_breach_sum_or_dtw(self, case, ground):
        q, rows = case
        lo, hi = rows.min(axis=1, keepdims=True), rows.max(axis=1, keepdims=True)
        got = lb_keogh_reverse_batch(q, lo, hi, ground=ground)
        oracle = breach_sum(q, lo, hi, ground == "squared")
        assert (got >= 0).all()
        assert (got <= oracle).all()
        # The margin shaved is rounding-sized, not a looser bound.
        scale = (np.abs(q).sum() + q.size * np.abs(rows).max()) ** (2 if ground == "squared" else 1)
        assert np.allclose(got, oracle, rtol=0, atol=1e-12 * max(scale, 1.0))
        # No point escapes: exactly zero, as the breach sum is.
        assert (got[oracle == 0.0] == 0.0).all()
        for g, row in enumerate(rows):
            assert got[g] <= dtw_distance(q, row, ground=ground) + 1e-9

    def test_true_envelopes_still_take_the_breach_tensor(self):
        rng = np.random.default_rng(4)
        q, lo = rng.normal(size=6), rng.normal(size=(3, 6))
        hi = lo + rng.uniform(size=(3, 6))
        assert np.array_equal(
            lb_keogh_reverse_batch(q, lo, hi), breach_sum(q, lo, hi, False)
        )


class TestRaggedKim:
    @given(
        x=st.lists(values, min_size=1, max_size=7),
        rows=st.lists(
            st.lists(values, min_size=2, max_size=7), min_size=1, max_size=8
        ),
        ground=st.sampled_from(["l1", "squared"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_per_length_calls_bit_for_bit(self, x, rows, ground):
        lengths = np.array([len(r) for r in rows])
        endpoints = np.array([[r[0], r[1], r[-2], r[-1]] for r in rows])
        got = lb_kim_endpoints_batch(x, endpoints, lengths, ground=ground)
        for m in np.unique(lengths):
            at = lengths == m
            want = lb_kim_endpoints_batch(x, endpoints[at], int(m), ground=ground)
            assert np.array_equal(got[at], want)


class TestLazyOrder:
    @given(
        bounds=st.lists(
            st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 2.0]), min_size=0, max_size=80
        ),
        block=st.integers(min_value=1, max_value=12),
        steps=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_prefix_of_the_stable_argsort(self, bounds, block, steps):
        bounds = np.asarray(bounds, dtype=np.float64)
        want = np.argsort(bounds, kind="stable")
        ranked = _LazyOrder(bounds, block)
        stop = 0
        for step in steps + [bounds.size]:
            stop += step
            ranked.upto(stop)
            ready = ranked.ready
            assert ready >= min(stop, bounds.size)
            assert np.array_equal(ranked.order[:ready], want[:ready])
            assert np.array_equal(ranked.values[:ready], bounds[want[:ready]])

    def test_all_zero_bounds_as_at_a_coarse_threshold(self):
        ranked = _LazyOrder(np.zeros(5000))
        ranked.upto(16)
        assert np.array_equal(ranked.order[: ranked.ready], np.arange(ranked.ready))

    def test_sorts_only_the_block_it_reaches(self):
        rng = np.random.default_rng(5)
        ranked = _LazyOrder(rng.uniform(size=20_000))
        ranked.upto(16)
        assert 16 <= ranked.ready < 2_000

    def test_nan_bounds_raise_instead_of_spinning(self):
        """A NaN bound compares false with every pivot, so a pass takes no
        rows; the order raises rather than loop forever."""
        ranked = _LazyOrder(np.full(50, np.nan), block=8)
        with pytest.raises(InvariantError, match="no progress at 0 of 50"):
            ranked.upto(1)


def walks(seed: int = 71) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=n).cumsum() for n in (30, 26, 22, 28)]


def build_walk_base() -> OnexBase:
    dataset = TimeSeriesDataset.from_arrays(walks(), name="cascade-walks")
    base = OnexBase(
        dataset, BuildConfig(similarity_threshold=0.08, min_length=5, max_length=9)
    )
    base.build()
    return base


@pytest.fixture(scope="module")
def walk_base() -> OnexBase:
    return build_walk_base()


def assert_table_matches_buckets(base: OnexBase) -> None:
    """Every table column equals its recomputation from the buckets'
    centroid stacks and radii — the only stored description of a
    representative — each bucket's rows appear in group order, and a
    writable bucket's means are its centroids' row means."""
    table = base.rep_table
    assert table.count == base.stats.groups == sum(b.group_count for b in base.buckets())
    for bucket in base.buckets():
        rows = table.rows_of([bucket.length])
        centroids = bucket.centroids
        assert (table.lengths[rows] == bucket.length).all()
        assert np.array_equal(table.gids[rows], np.arange(bucket.group_count))
        assert np.array_equal(table.endpoints[rows], centroids[:, [0, 1, -2, -1]])
        assert np.array_equal(table.lo[rows], centroids.min(axis=1))
        assert np.array_equal(table.hi[rows], centroids.max(axis=1))
        assert np.array_equal(table.radii[rows], bucket.cheb_radii)
        if bucket.writable:
            assert np.array_equal(bucket.centroid_means, centroids.mean(axis=1))


class TestRepresentativeTable:
    def test_equals_the_bucket_summaries_through_every_change(self, tmp_path):
        base = build_walk_base()
        assert_table_matches_buckets(base)
        built = base.rep_table
        # Freshly built, the table is the buckets' rows by ascending length.
        assert np.array_equal(
            built.endpoints,
            np.concatenate([b.centroids[:, [0, 1, -2, -1]] for b in base.buckets()]),
        )

        rng = np.random.default_rng(12)
        groups = base.stats.groups
        base.add_series(TimeSeries("appended", rng.normal(size=24).cumsum()))
        assert base.stats.groups > groups  # new groups ...
        assert base.rep_table is built, "extended in place, never rebuilt"
        assert_table_matches_buckets(base)

        # ... and radius growth: points that re-trace an indexed stretch
        # join existing groups, whose Chebyshev radii widen in place.
        ingestor = StreamIngestor(base)
        radii = built.radii.copy()
        tail = base.raw_dataset["appended"].values[-8:]
        ingestor.append_points("appended", tail + rng.normal(scale=0.02, size=8))
        assert (built.radii[: radii.size] > radii).any()
        assert base.rep_table is built
        assert_table_matches_buckets(base)
        base.save(tmp_path / "saved")
        assert_table_matches_buckets(OnexBase.load(tmp_path / "saved"))
        epoch = save_base_snapshot(base, tmp_path / "epoch-1")
        attached, _ = load_base_snapshot(epoch, mmap_mode="r")
        assert_table_matches_buckets(attached)
        q = walks()[0][3:10]
        want = QueryProcessor(base, QueryConfig(mode="exact")).k_best_matches(q, 4)
        got = QueryProcessor(attached, QueryConfig(mode="exact")).k_best_matches(q, 4)
        assert [(m.ref, m.distance) for m in got] == [(m.ref, m.distance) for m in want]

    def test_a_bucket_opened_by_ingestion_is_located(self):
        rng = np.random.default_rng(14)
        dataset = TimeSeriesDataset.from_arrays(
            [rng.normal(size=7).cumsum(), rng.normal(size=8).cumsum()], name="short"
        )
        base = OnexBase(
            dataset, BuildConfig(similarity_threshold=0.1, min_length=5, max_length=9)
        )
        base.build()
        assert base.lengths == [5, 6, 7, 8]
        built = base.rep_table
        StreamIngestor(base).append_points("series-1", rng.normal(size=3).cumsum())
        assert base.lengths == [5, 6, 7, 8, 9]
        assert base.rep_table is built and built.rows_of([9]).size
        assert_table_matches_buckets(base)
        q = base.dataset["series-1"].values[1:10]
        hit = QueryProcessor(base, QueryConfig(mode="exact")).best_match(q, normalize=False)
        assert (hit.length, hit.start, hit.distance) == (9, 1, 0.0)

    def test_a_rebuild_starts_a_fresh_table(self):
        base = build_walk_base()
        first = base.rep_table
        base.build()
        assert base.rep_table is not first
        assert_table_matches_buckets(base)

    def test_batch_on_a_fresh_attach_builds_one_table(self, walk_base, tmp_path, monkeypatch):
        epoch = save_base_snapshot(walk_base, tmp_path / "epoch-1")
        attached, _ = load_base_snapshot(epoch, mmap_mode="r")
        built = []
        init = RepresentativeTable.__init__

        def counting(self, buckets):
            built.append(len(buckets))
            init(self, buckets)

        monkeypatch.setattr(core_base.RepresentativeTable, "__init__", counting)
        rng = np.random.default_rng(13)
        queries = [rng.uniform(size=n) for n in (6, 6, 7, 5, 9, 6, 8, 7)]
        processor = QueryProcessor(attached, QueryConfig(mode="exact"))
        got = processor.batch_matches(queries, 3, normalize=False)
        assert built == [len(attached.lengths)]
        want = QueryProcessor(walk_base, QueryConfig(mode="exact"))
        for q, matches in zip(queries, got):
            assert [(m.ref, m.distance) for m in matches] == [
                (m.ref, m.distance) for m in want.k_best_matches(q, 3, normalize=False)
            ]


class TestThresholdDriver:
    @staticmethod
    def brute_force(base: OnexBase, q: np.ndarray, threshold: float, lengths) -> list:
        oracle = BruteForceSearcher(base.dataset)
        every = oracle.k_best_matches(q, base.stats.subsequences, lengths)
        return [(m.ref, m.distance) for m in every if m.distance <= threshold]

    @pytest.mark.parametrize("mode", ["fast", "exact"])
    @pytest.mark.parametrize("lengths", [None, [5], [6, 9]])
    def test_equals_brute_force(self, walk_base, mode, lengths):
        rng = np.random.default_rng(21)
        processor = QueryProcessor(walk_base, QueryConfig(mode=mode))
        first = walk_base.dataset[0].values
        for q in (first[2:8] + rng.normal(scale=0.01, size=6), rng.uniform(size=11)):
            for threshold in (0.03, 0.08):
                got = processor.matches_within(q, threshold, lengths=lengths, normalize=False)
                want = self.brute_force(
                    walk_base, q, threshold, lengths or walk_base.lengths
                )
                assert [(m.ref, m.distance) for m in got] == want
                assert all(m.exact for m in got)

    def test_a_fired_partial_deadline_returns_the_chunks_verified(self, walk_base, monkeypatch):
        q = walk_base.dataset[0].values[2:8]
        processor = QueryProcessor(walk_base, QueryConfig(mode="exact"))
        token = CancellationToken()
        fired = []

        def fire(point, **ctx):
            if point == "query.refine_unit":
                fired.append(point)
                if len(fired) == 2:
                    token.cancel()

        monkeypatch.setattr(faults, "fire", fire)
        got = processor.matches_within(
            q, 0.08, normalize=False, deadline=Deadline(token=token, allow_partial=True)
        )
        # Lengths 5-7 are the first chunk, 8-9 the second: the first
        # chunk's matches are complete, flagged inexact as a set.
        want = self.brute_force(walk_base, q, 0.08, [5, 6, 7])
        assert want and [(m.ref, m.distance) for m in got] == want
        assert all(not m.exact for m in got)
        assert processor.last_stats.partial_results == 1
