"""The stateful differential oracle: a base grown through every write path
answers every read as a brute-force scan of a plain model does.

A Hypothesis state machine builds an :class:`OnexBase` over three
12-point random walks (lengths 3-6, ST 0.05, 0.2 or 0.6, normalised or
not) and keeps the raw points in plain lists.  It grows the base as a
server does — ``add_series``, streaming appends, save → load, a replica
started from a save and fed tails — and holds every read to a scan of the
model's windows (normalised by the base's bounds where it normalises):
exact ``k_best`` to ``dtw_path``'s distances and paths; fast ``k_best``
to true distances, never better than exact at each rank, inside the
transfer interval of the group's representative; ``matches_within`` in
both modes to the oracle's set; ``batch_matches`` to per-query
``k_best``; ``euclidean`` to a scan of its ``pair``; a caught-up replica
to the writer.  After every step both tables equal their recomputation
from the buckets.  The examples are split between the kernel backends.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant
from hypothesis.stateful import precondition, rule, run_state_machine_as_test

from repro.core.base import OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.query import QueryProcessor
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.distances.bounds import transfer_bounds
from repro.distances.dtw import dtw_path
from repro.distances.normalize import minmax_normalize
from repro.distances.registry import get_metric
from repro.stream.ingest import StreamIngestor
from tests.test_rank_stage import assert_table_matches_buckets

MIN_LENGTH, MAX_LENGTH = 3, 6
EUCLIDEAN = get_metric("euclidean")

values = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
#: A query: a model window (picked by the integer) of the given length,
#: shifted point by point — near enough to indexed windows to matter.
queries = st.tuples(
    st.integers(0, 10**6),
    st.integers(MIN_LENGTH, MAX_LENGTH + 1),
    st.lists(st.floats(-0.4, 0.4), min_size=MAX_LENGTH + 1, max_size=MAX_LENGTH + 1),
)
bands = st.sampled_from((None, 1, 3))
modes = st.sampled_from(("fast", "exact"))
ks = st.integers(1, 4)
thresholds = st.floats(0.02, 0.5)


def key(match) -> tuple[float, tuple[int, int, int]]:
    return match.distance, (match.ref.series_index, match.ref.start, match.ref.length)


def answer(matches) -> list[tuple]:
    return [(m.ref, m.distance, m.raw_distance, m.path, m.group) for m in matches]


class OracleMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.scratch = tempfile.TemporaryDirectory()
        self.saves, self.replica, self.mark, self.caught_up = 0, None, None, False

    def teardown(self) -> None:
        self.scratch.cleanup()

    @initialize(
        seed=st.integers(0, 2**16),
        threshold=st.sampled_from((0.05, 0.2, 0.6)),
        normalize=st.booleans(),
    )
    def build(self, seed: int, threshold: float, normalize: bool) -> None:
        rng = np.random.default_rng(seed)
        self.model = {f"s{i}": rng.normal(size=12).cumsum().tolist() for i in range(3)}
        series = [TimeSeries(name, np.array(v)) for name, v in self.model.items()]
        self.base = OnexBase(
            TimeSeriesDataset(series, name="oracle"),
            BuildConfig(threshold, MIN_LENGTH, MAX_LENGTH, normalize=normalize),
        )
        self.base.build()
        self.ingestor = StreamIngestor(self.base)

    # -- the model ------------------------------------------------------

    def scaled(self, raw) -> np.ndarray:
        bounds = self.base.normalization_bounds
        raw = np.asarray(raw, dtype=np.float64)
        return raw if bounds is None else minmax_normalize(raw, lo=bounds[0], hi=bounds[1])

    def windows(self) -> list[tuple[np.ndarray, tuple[int, int, int]]]:
        """Every window of the model in the base's value space, with its ref."""
        out = []
        for s_i, raw in enumerate(self.model.values()):
            series = self.scaled(raw)
            for length in range(MIN_LENGTH, MAX_LENGTH + 1):
                for start in range(series.size - length + 1):
                    out.append((series[start : start + length], (s_i, start, length)))
        return out

    def query(self, spec: tuple, indexed: bool = False) -> np.ndarray:
        pick, length, shift = spec
        raw = list(self.model.values())[pick % len(self.model)]
        length = min(length, MAX_LENGTH if indexed else len(raw))
        start = pick % (len(raw) - length + 1)
        return np.array(raw[start : start + length]) + shift[:length]

    def dtw_truth(self, q: np.ndarray, band: int | None) -> list[tuple[float, tuple]]:
        qn = self.scaled(q)
        return sorted(
            (dtw_path(qn, w, window=band).normalized_distance, ref)
            for w, ref in self.windows()
        )

    # -- writes ---------------------------------------------------------

    @precondition(lambda self: len(self.model) < 5)
    @rule(points=st.lists(values, min_size=MAX_LENGTH, max_size=12))
    def add_series(self, points: list[float]) -> None:
        name = f"s{len(self.model)}"
        self.base.add_series(TimeSeries(name, np.cumsum(points)))
        self.model[name] = np.cumsum(points).tolist()
        self.caught_up = False

    @rule(which=st.integers(0, 10), points=st.lists(values, min_size=1, max_size=6))
    def append_points(self, which: int, points: list[float]) -> None:
        name = list(self.model)[which % len(self.model)]
        self.ingestor.append_points(name, points)
        self.model[name] += points
        self.caught_up = False

    def save(self) -> Path:
        self.saves += 1
        path = Path(self.scratch.name) / f"base-{self.saves}"
        self.base.save(path)
        return path

    @rule()
    def save_and_load(self) -> None:
        self.base = OnexBase.load(self.save())
        self.ingestor = StreamIngestor(self.base)
        self.replica, self.caught_up = None, False

    @rule()
    def start_replica(self) -> None:
        self.replica = OnexBase.load(self.save())
        self.mark = self.base.mark()
        self.caught_up = True

    @precondition(lambda self: self.replica is not None)
    @rule()
    def ship_tail(self) -> None:
        self.replica.apply_tail(self.base.tail(self.mark))
        self.mark = self.base.mark()
        assert self.replica.structure_fingerprint() == self.base.structure_fingerprint()
        self.caught_up = True

    # -- reads ----------------------------------------------------------

    def processor(self, **config) -> QueryProcessor:
        return QueryProcessor(self.base, QueryConfig(**config))

    def same_on_replica(self, config: dict, call) -> None:
        if self.caught_up:
            replica = QueryProcessor(self.replica, QueryConfig(**config))
            assert answer(call(replica)) == answer(call(self.processor(**config)))

    @rule(spec=queries, k=ks, band=bands)
    def exact_k_best(self, spec: tuple, k: int, band: int | None) -> None:
        q = self.query(spec)
        got = self.processor(mode="exact", window=band).k_best_matches(q, k)
        assert [key(m) for m in got] == self.dtw_truth(q, band)[:k]
        for m in got:
            member = self.base.member_values(m.ref)
            assert m.path == dtw_path(self.scaled(q), member, window=band).path
        self.same_on_replica(dict(mode="exact", window=band), lambda p: p.k_best_matches(q, k))

    @rule(spec=queries, k=ks, band=bands)
    def fast_k_best(self, spec: tuple, k: int, band: int | None) -> None:
        q = self.query(spec)
        got = self.processor(mode="fast", window=band).k_best_matches(q, k)
        truth = self.dtw_truth(q, band)
        exact = dict((ref, d) for d, ref in truth)
        for rank, m in enumerate(got):
            distance, ref = key(m)
            assert distance == exact[ref] and distance >= truth[rank][0]
            length, gid = m.group
            rep = self.base.bucket(length).centroids[gid]
            member = self.base.member_values(m.ref)
            interval = transfer_bounds(self.scaled(q), rep, member, window=band)
            slack = 1e-9 * (1.0 + interval.upper)
            assert interval.lower - slack <= m.raw_distance <= interval.upper + slack

    @rule(spec=queries, threshold=thresholds, band=bands, mode=modes)
    def matches_within(self, spec: tuple, threshold: float, band, mode: str) -> None:
        q = self.query(spec)
        call = lambda p: p.matches_within(q, threshold)  # noqa: E731
        got = call(self.processor(mode=mode, window=band))
        want = [t for t in self.dtw_truth(q, band) if t[0] <= threshold]
        assert [key(m) for m in got] == want
        self.same_on_replica(dict(mode=mode, window=band), call)

    @rule(first=queries, second=queries, k=ks, mode=modes)
    def batch_matches(self, first: tuple, second: tuple, k: int, mode: str) -> None:
        qs = [self.query(first), self.query(second)]
        processor = self.processor(mode=mode)
        got = processor.batch_matches(qs, k)
        assert [answer(a) for a in got] == [
            answer(processor.k_best_matches(q, k)) for q in qs
        ]

    @rule(spec=queries, k=ks, threshold=thresholds, mode=modes)
    def euclidean(self, spec: tuple, k: int, threshold: float, mode: str) -> None:
        q = self.query(spec, indexed=True)
        qn = self.scaled(q)
        windows = [(w, ref) for w, ref in self.windows() if ref[2] == q.size]
        truth = sorted((EUCLIDEAN.pair(qn, w, None)[1], ref) for w, ref in windows)
        exact = dict((ref, d) for d, ref in truth)
        processor = self.processor(mode=mode, metric="euclidean")
        got = processor.k_best_matches(q, k)
        assert len(got) == min(k, len(truth))
        for m, (want, _) in zip(got, truth):
            distance, ref = key(m)
            assert math.isclose(distance, want, rel_tol=1e-9, abs_tol=1e-12)
            assert math.isclose(distance, exact[ref], rel_tol=1e-9, abs_tol=1e-12)
        within = {key(m)[1] for m in processor.matches_within(q, threshold)}
        clear = {ref for d, ref in truth if abs(d - threshold) > 1e-9}
        assert within & clear == {ref for d, ref in truth if d <= threshold} & clear

    @invariant()
    def tables_match_buckets(self) -> None:
        if hasattr(self, "base"):
            assert_table_matches_buckets(self.base)


@pytest.mark.usefixtures("kernel_backend")
def test_every_read_answers_as_the_model():
    run_state_machine_as_test(
        OracleMachine,
        settings=settings(max_examples=30, stateful_step_count=12, deadline=None),
    )
