"""The staged cascade answers exactly and does exactly the pinned work.

Two small bases, both query modes, every read operation.  Exact-mode
answers are checked against a brute-force scan that shares no code with
the cascade beyond the row-scan ``dtw_path``; the work counters are
pinned, so a change to *which* representatives or members get a DTW call
shows up here.  The rest of the file pins what the member stage promises
about its own work: path lengths only for rows that pass the raw test,
no member selection or kernel call ahead of a deadline check (per drained chunk in
k-best, per length-sorted chunk in the threshold scan), and the
brute-force order under exact distance ties.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.query as query_module
from repro.baselines.brute_force import BruteForceSearcher
from repro.core.base import MemberTable, OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.deadline import Deadline
from repro.core.query import QueryProcessor, QueryStats
from repro.data.dataset import TimeSeriesDataset
from repro.data.matters import STATE_ABBREVIATIONS, build_matters_collection
from repro.data.timeseries import TimeSeries
from repro.distances import native
from repro.distances.dtw import dtw_path
from repro.exceptions import DeadlineExceeded
from repro.stream.ingest import StreamIngestor
from repro.testing import faults
from tests.deadlines import expire_at_refine_unit

#: Every :class:`QueryStats` field, in declaration order: the pins below
#: hold all of the work a query does, not a sample of it.
PINNED_FIELDS = tuple(f.name for f in fields(QueryStats))

#: ``(base, mode, op) -> PINNED_FIELDS`` values summed over the three
#: queries, identical on both kernel backends.  Re-recorded once when a
#: build became appends to an empty base (representatives are seeds, not
#: moving centroids; previous pins: commit ec4577c): ``walk`` has 780
#: groups where it had 774 and ``matters`` 240 where it had 213.
#: ``query_batch`` has no pin of its own: it is the single-query path per
#: query, asserted below as the sum of its ``k_best`` counters.
PINNED = {
    ("walk", "fast", "k_best"): [780, 0, 48, 732, 0, 5, 18, 0, 18, 12, 0, 0],
    ("walk", "fast", "best_match"): [780, 0, 48, 732, 0, 3, 10, 0, 10, 5, 0, 0],
    ("walk", "fast", "matches_within"): [780, 301, 479, 301, 429, 351, 762, 55, 707, 568, 0, 0],
    ("walk", "exact", "k_best"): [780, 444, 336, 444, 619, 161, 539, 263, 276, 38, 0, 0],
    ("walk", "exact", "best_match"): [780, 444, 336, 444, 624, 156, 531, 277, 254, 26, 0, 0],
    ("walk", "exact", "matches_within"): [780, 301, 479, 301, 429, 351, 762, 55, 707, 568, 0, 0],
    ("matters", "fast", "k_best"): [240, 0, 48, 192, 0, 3, 30, 0, 30, 30, 0, 0],
    ("matters", "fast", "best_match"): [240, 0, 48, 192, 0, 3, 30, 0, 30, 7, 0, 0],
    ("matters", "fast", "matches_within"): [240, 16, 224, 16, 29, 211, 1713, 640, 1073, 287, 0, 0],
    ("matters", "exact", "k_best"): [240, 0, 240, 0, 34, 206, 1705, 1037, 668, 40, 0, 0],
    ("matters", "exact", "best_match"): [240, 0, 240, 0, 34, 206, 1705, 1089, 616, 20, 0, 0],
    ("matters", "exact", "matches_within"): [240, 16, 224, 16, 29, 211, 1713, 640, 1073, 287, 0, 0],
}  # fmt: skip


def walk_base() -> OnexBase:
    rng = np.random.default_rng(71)
    arrays = [rng.normal(size=n).cumsum() for n in (30, 26, 22, 28)]
    dataset = TimeSeriesDataset.from_arrays(arrays, name="cascade-walks")
    base = OnexBase(
        dataset, BuildConfig(similarity_threshold=0.08, min_length=5, max_length=9)
    )
    base.build()
    return base


def matters_base() -> OnexBase:
    dataset = build_matters_collection(
        indicators=("GrowthRate",),
        states=STATE_ABBREVIATIONS[:12],
        years=20,
        min_years=14,
        seed=5,
    )
    base = OnexBase(
        dataset, BuildConfig(similarity_threshold=0.2, min_length=5, max_length=8)
    )
    base.build()
    return base


@pytest.fixture(scope="module", params=["walk", "matters"])
def named_base(request):
    return request.param, {"walk": walk_base, "matters": matters_base}[request.param]()


def queries_for(base: OnexBase) -> list[np.ndarray]:
    """Three queries in the base's value space: lengths 5, 7 and 11."""
    rng = np.random.default_rng(9)
    first = base.dataset[0].values
    return [
        first[2:7] + rng.normal(scale=0.01, size=5),
        first[4:11] + rng.normal(scale=0.02, size=7),
        np.interp(np.linspace(0, 8, 11), np.arange(9), first[1:10]),
    ]


def brute_force(base: OnexBase, q: np.ndarray) -> list[tuple[float, tuple]]:
    """``(normalised DTW, (series, start, length))`` of every indexed window."""
    out = []
    for s_i, series in enumerate(base.dataset):
        for length in base.lengths:
            for start in range(len(series) - length + 1):
                res = dtw_path(q, series.values[start : start + length])
                out.append((res.normalized_distance, (s_i, start, length)))
    return sorted(out)


def key(match) -> tuple[float, tuple]:
    return match.distance, (match.ref.series_index, match.ref.start, match.ref.length)


def run_ops(processor: QueryProcessor, qs: list[np.ndarray]) -> dict:
    """Every read operation's answers and work counters, by op name."""
    out = {}
    for name, call in (
        ("k_best", lambda q: processor.k_best_matches(q, 3, normalize=False)),
        ("best_match", lambda q: [processor.best_match(q, normalize=False)]),
        ("matches_within", lambda q: processor.matches_within(q, 0.05, normalize=False)),
    ):
        answers, counters = [], []
        for q in qs:
            answers.append(call(q))
            stats = processor.last_stats
            counters.append([getattr(stats, f) for f in PINNED_FIELDS])
        out[name] = (answers, np.sum(counters, axis=0).tolist())
    answers = processor.batch_matches(qs, 3, normalize=False)
    out["query_batch"] = (
        answers,
        [getattr(processor.last_stats, f) for f in PINNED_FIELDS],
    )
    return out


@pytest.mark.usefixtures("kernel_backend")
@pytest.mark.parametrize("mode", ["fast", "exact"])
def test_answers_and_work_counters(named_base, mode):
    name, base = named_base
    qs = queries_for(base)
    ran = run_ops(QueryProcessor(base, QueryConfig(mode=mode)), qs)
    for op in ("k_best", "best_match", "matches_within"):
        got = dict(zip(PINNED_FIELDS, ran[op][1]))
        assert got == dict(zip(PINNED_FIELDS, PINNED[name, mode, op])), op
    # The batch runs the single-query path per query: same k, same work.
    batch = dict(zip(PINNED_FIELDS, ran["k_best"][1]), batch_queries=len(qs))
    assert dict(zip(PINNED_FIELDS, ran["query_batch"][1])) == batch
    truths = [brute_force(base, q) for q in qs]
    for q, truth, within in zip(qs, truths, ran["matches_within"][0]):
        # The threshold sweep verifies every survivor in either mode.
        assert [key(m) for m in within] == [t for t in truth if t[0] <= 0.05]
    for op, k in (("k_best", 3), ("best_match", 1), ("query_batch", 3)):
        for truth, matches in zip(truths, ran[op][0]):
            got = [key(m) for m in matches]
            if mode == "exact":
                assert got == truth[:k]
            else:
                # Fast mode may miss the optimum but never misreports a distance.
                assert set(got) <= set(truth)


CANCELLED_OPS = {
    "k_best": lambda p, q, d: p.k_best_matches(q, 3, deadline=d),
    "query_batch": lambda p, q, d: p.batch_matches([q, q], 3, deadline=d),
    "matches_within": lambda p, q, d: p.matches_within(q, 0.05, deadline=d),
}


@pytest.mark.parametrize("metric", ["dtw", "euclidean", "derivative_dtw"])
@pytest.mark.parametrize("mode", ["fast", "exact"])
@pytest.mark.parametrize("op", sorted(CANCELLED_OPS))
def test_a_cancelled_query_has_run_no_dtw(op, mode, metric, monkeypatch):
    """The check comes first: expired before its first chunk, an
    operation has verified no representative and refined no member —
    under a registry metric too (the query has an indexed length)."""
    base = walk_base()
    expire_at_refine_unit(monkeypatch, 0)
    with pytest.raises(DeadlineExceeded) as raised:
        CANCELLED_OPS[op](
            QueryProcessor(base, QueryConfig(mode=mode, metric=metric)),
            queries_for(base)[0],
            Deadline(120_000),
        )
    assert raised.value.progress["rep_dtw_calls"] == 0
    assert raised.value.progress["member_dtw_calls"] == 0


class _WatchedDeadline(Deadline):
    """A deadline that never fires and logs every check."""

    def __init__(self, events: list) -> None:
        super().__init__(120_000)
        self._events = events

    @property
    def expired(self) -> bool:
        self._events.append("check")
        return False


def watched_run(monkeypatch, call) -> tuple[list, QueryProcessor]:
    """Run *call(processor, deadline)*, logging failpoints, deadline
    checks, member selections and kernel calls — the native walk's too —
    in the order they happen."""
    events: list = []
    base = matters_base()
    processor = QueryProcessor(base, QueryConfig(mode="exact"))
    select = MemberTable.select
    kernel = query_module.dtw_distance_batch
    walk = native.walk

    def logged_select(self, *args):
        events.append("select")
        return select(self, *args)

    def logged_kernel(*args, **kwargs):
        events.append("kernel")
        return kernel(*args, **kwargs)

    def logged_walk(*args, **kwargs):
        events.append("kernel")
        return walk(*args, **kwargs)

    monkeypatch.setattr(faults, "fire", lambda point, **ctx: events.append(point))
    monkeypatch.setattr(MemberTable, "select", logged_select)
    monkeypatch.setattr(query_module, "dtw_distance_batch", logged_kernel)
    monkeypatch.setattr(native, "walk", logged_walk)
    call(processor, _WatchedDeadline(events))
    return events, processor


def assert_every_select_follows_its_check(events: list) -> None:
    for at, event in enumerate(events):
        if event == "select":
            assert events[at - 2 : at] == ["query.refine_unit", "check"], events[: at + 1]


def test_k_best_checks_once_per_drained_chunk(monkeypatch):
    q = queries_for(matters_base())[1]
    events, processor = watched_run(
        monkeypatch, lambda p, d: p.k_best_matches(q, 3, normalize=False, deadline=d)
    )
    selects = events.count("select")
    assert selects > 1, "one chunk would not show the per-chunk boundary"
    assert events.count("query.refine_unit") == selects
    assert_every_select_follows_its_check(events)
    # One ragged cost call per chunk, plus at most one path-length call;
    # none for a chunk whose members all fall to their lower bounds.
    member_kernels = [
        events[at + 1 : at + 3].count("kernel")
        for at, event in enumerate(events)
        if event == "select"
    ]
    assert member_kernels == [2, 1, 0]


def test_threshold_scan_checks_once_per_chunk(kernel_backend, monkeypatch):
    base = matters_base()
    q = queries_for(base)[1]
    events, _ = watched_run(
        monkeypatch, lambda p, d: p.matches_within(q, 0.05, normalize=False, deadline=d)
    )
    # Lengths 5-7 verify as one chunk, length 8 as the next: the boundary
    # is the chunk, not the length bucket.
    chunks = events.count("query.refine_unit")
    assert chunks == 2 < len(base.lengths)
    assert events.count("check") == chunks
    assert events.count("select") == chunks
    for at, event in enumerate(events):
        if event == "query.refine_unit":
            # Nothing of the chunk — not even its representatives' DTW —
            # runs between the failpoint and the deadline check, and the
            # chunk is one representative call, one selection and at most a
            # cost and a path-length call.
            assert events[at + 1 : at + 4] == ["check", "kernel", "select"]
            after = events[at + 4 : at + 7]
            assert 1 <= (after + ["query.refine_unit"]).index("query.refine_unit") <= 2


@pytest.mark.parametrize("mode", ["fast", "exact"])
def test_path_lengths_only_for_rows_that_pass_the_raw_test(
    named_base, mode, kernel_backend, monkeypatch
):
    """The kernel tracks path lengths for ``member_path_calls`` rows, which
    is never more than the rows whose raw cost was computed.  The native
    fast walk verifies its representatives inside its own call, so there
    every cost row counted here is a member's."""
    _, base = named_base
    rows = {"cost": 0, "path": 0}
    kernel = query_module.dtw_distance_batch

    def counting_kernel(x, mat, **kwargs):
        rows["path" if kwargs.get("with_path_length") else "cost"] += len(mat)
        return kernel(x, mat, **kwargs)

    monkeypatch.setattr(query_module, "dtw_distance_batch", counting_kernel)
    processor = QueryProcessor(base, QueryConfig(mode=mode))
    for q in queries_for(base):
        rows.update(cost=0, path=0)
        processor.k_best_matches(q, 3, normalize=False)
        stats = processor.last_stats
        assert rows["path"] == stats.member_path_calls
        # A call in which no row could fail the raw test skips it.
        native_walk = mode == "fast" and kernel_backend == "native"
        reps = 0 if native_walk else stats.rep_dtw_calls
        assert 0 <= rows["cost"] - reps <= stats.member_dtw_calls
        assert 3 <= stats.member_path_calls <= stats.member_dtw_calls
    if mode == "exact":
        # Raw-first is the point: most verified members never need one.
        assert stats.member_path_calls * 2 < stats.member_dtw_calls


def test_k_best_is_prefix_monotone(named_base):
    """Asking for fewer matches returns a prefix of asking for more."""
    _, base = named_base
    processor = QueryProcessor(base, QueryConfig(mode="exact"))
    for q in queries_for(base):
        full = [key(m) for m in processor.k_best_matches(q, 12, normalize=False)]
        for k in (1, 2, 5, 11):
            got = processor.k_best_matches(q, k, normalize=False)
            assert [key(m) for m in got] == full[:k]


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=9),
    copies=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_exact_distance_ties_come_back_in_brute_force_order(seed, k, copies):
    """Duplicated windows tie exactly; ``(distance, ref)`` decides, in
    the refinement stage as in the brute-force scan."""
    rng = np.random.default_rng(seed)
    # Few distinct values and repeated series: many windows are equal.
    motif = rng.integers(0, 3, size=9).astype(float)
    arrays = [motif.copy() for _ in range(copies)]
    arrays.append(np.concatenate([motif[:5], motif[:5]]))
    dataset = TimeSeriesDataset.from_arrays(arrays, name="ties")
    base = OnexBase(
        dataset,
        BuildConfig(similarity_threshold=0.3, min_length=4, max_length=6, normalize=False),
    )
    base.build()
    oracle = BruteForceSearcher(base.dataset)
    processor = QueryProcessor(base, QueryConfig(mode="exact"))
    start = int(rng.integers(0, 4))
    for q in (motif[start : start + 5], motif[start : start + 4] + 0.5):
        got = processor.k_best_matches(q, k, normalize=False)
        want = oracle.k_best_matches(q, k, base.lengths)
        assert [(m.distance, m.ref) for m in got] == [(m.distance, m.ref) for m in want]


def test_new_groups_are_searched_straight_away():
    """No stale stack: windows indexed after a query are found by the next."""
    base = walk_base()
    processor = QueryProcessor(base, QueryConfig(mode="exact"))
    far = np.array([40.0, 41.5, 40.5, 42.0, 41.0, 43.0])
    before = processor.best_match(far)
    assert before.distance > 1.0

    groups = base.stats.groups
    base.add_series(TimeSeries("plateau", np.concatenate([far, far + 0.25])))
    assert base.stats.groups > groups
    hit = processor.best_match(far)
    assert hit.series_name == "plateau" and hit.start == 0 and hit.distance == 0.0

    ingestor = StreamIngestor(base)
    spike = np.array([-30.0, -31.0, -29.0, -32.0, -28.0, -33.0])
    groups = base.stats.groups
    ingestor.append_points("plateau", spike)
    assert base.stats.groups > groups
    hit = processor.best_match(spike)
    assert hit.series_name == "plateau" and hit.start == 12 and hit.distance == 0.0
    within = processor.matches_within(spike, 0.01)
    assert [key(m) for m in within] == [(0.0, (4, 12, 6))]


@pytest.mark.usefixtures("kernel_backend")
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    appends=st.lists(
        st.tuples(st.integers(0, 2), st.integers(1, 4)), min_size=2, max_size=6
    ),
    k=st.integers(min_value=1, max_value=6),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_interleaved_appends_answer_as_brute_force(seed, appends, k):
    """Appends to several series interleave their joins in the stores, so
    a group's members are not contiguous rows of the member table; exact
    k-best, range and batch answers still equal a brute-force scan."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=n).cumsum() for n in (12, 10, 14)]
    base = OnexBase(
        TimeSeriesDataset.from_arrays(arrays, name="interleaved"),
        BuildConfig(similarity_threshold=0.3, min_length=4, max_length=7, normalize=False),
    )
    base.build()
    base.member_table  # exists before the appends, so they extend it
    ingestor = StreamIngestor(base)
    for series, points in appends:
        values = base.dataset[series].values
        # Re-trace a stretch of the series: most new windows join groups.
        at = int(rng.integers(0, values.size - points + 1))
        ingestor.append_points(
            base.dataset[series].name,
            values[at : at + points] + rng.normal(scale=0.05, size=points),
        )
    processor = QueryProcessor(base, QueryConfig(mode="exact"))
    oracle = BruteForceSearcher(base.dataset)
    qs = []
    for length in rng.integers(4, 8, size=2).tolist():
        values = base.dataset[int(rng.integers(0, 3))].values
        at = int(rng.integers(0, values.size - length + 1))
        qs.append(values[at : at + length] + rng.normal(scale=0.1, size=length))
    for q, batch in zip(qs, processor.batch_matches(qs, k)):
        want = [key(m) for m in oracle.k_best_matches(q, k, base.lengths)]
        assert [key(m) for m in processor.k_best_matches(q, k)] == want
        assert [key(m) for m in batch] == want
        truth = brute_force(base, q)
        threshold = max(truth[min(k, len(truth)) - 1][0], 0.01)
        within = processor.matches_within(q, threshold)
        assert [key(m) for m in within] == [t for t in truth if t[0] <= threshold]
