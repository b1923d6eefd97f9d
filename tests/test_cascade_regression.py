"""The staged cascade answers exactly and does exactly the pinned work.

Two small bases, both query modes, every read operation.  Exact-mode
answers are checked against a brute-force scan that shares no code with
the cascade beyond the row-scan ``dtw_path``; the work counters are
pinned, so a change to *which* representatives or members get a DTW call
shows up here.  The rest of the file pins what the member stage promises
about its own work: path lengths only for rows that pass the raw test,
no gather or kernel call ahead of a deadline check (per drained chunk in
k-best, per length-sorted chunk in the threshold scan), and the
brute-force order under exact distance ties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.query as query_module
from repro.baselines.brute_force import BruteForceSearcher
from repro.core.base import OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.deadline import CancellationToken, Deadline
from repro.core.query import QueryProcessor
from repro.data.dataset import TimeSeriesDataset
from repro.data.matters import STATE_ABBREVIATIONS, build_matters_collection
from repro.data.timeseries import TimeSeries
from repro.distances.dtw import dtw_path
from repro.exceptions import DeadlineExceeded
from repro.stream.ingest import StreamIngestor
from repro.testing import faults

PINNED_FIELDS = (
    "rep_dtw_calls",
    "member_dtw_calls",
    "groups_refined",
    "rep_lb_prunes",
    "rep_dtw_skipped",
)

#: ``(base, mode, op) -> PINNED_FIELDS`` values, re-pinned when member
#: refinement became one best-first, raw-first stage (previous pins: commit
#: 152ae78).  What moved, and why:
#:
#: - ``matches_within`` — nothing, in either mode.
#: - fast mode — the representative counters are unchanged; ``walk``
#:   verifies a few more members (13 -> 14, 6 -> 11) because the top
#:   ``refine_groups`` groups now refine in ONE call with no cutoff between
#:   them, and because units under eight rows no longer take the deleted
#:   scalar early-abandoning scan.
#: - exact mode — ``member_dtw_calls`` only went DOWN (316 -> 254,
#:   289 -> 232, 1100 -> 739, 903 -> 700): groups drain in ascending
#:   (tight bound, representative distance), so the cutoff is near-final
#:   after the first small chunk.  ``groups_refined`` fell on ``matters``
#:   (213 -> 149) for the same reason.  ``rep_dtw_calls``,
#:   ``rep_lb_prunes`` and ``rep_dtw_skipped`` are unchanged: the
#:   representative-verify schedule was not touched.
#: - ``query_batch`` has no pin of its own: it is the single-query path per
#:   query, asserted below as the sum of its ``k_best`` counters.
PINNED = {
    ("walk", "fast", "k_best"): [112, 14, 5, 0, 662],
    ("walk", "fast", "best_match"): [112, 11, 3, 0, 662],
    ("walk", "fast", "matches_within"): [463, 685, 326, 311, 311],
    ("walk", "exact", "k_best"): [200, 254, 110, 574, 574],
    ("walk", "exact", "best_match"): [177, 232, 106, 597, 597],
    ("walk", "exact", "matches_within"): [463, 685, 326, 311, 311],
    ("matters", "fast", "k_best"): [80, 25, 3, 0, 133],
    ("matters", "fast", "best_match"): [80, 25, 3, 0, 133],
    ("matters", "fast", "matches_within"): [180, 1064, 159, 33, 33],
    ("matters", "exact", "k_best"): [213, 739, 149, 0, 0],
    ("matters", "exact", "best_match"): [213, 700, 149, 0, 0],
    ("matters", "exact", "matches_within"): [180, 1064, 159, 33, 33],
}


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
    answers = processor.batch_matches(qs, 3, normalize=False, max_workers=2)
    out["query_batch"] = (
        answers,
        [getattr(processor.last_stats, f) for f in PINNED_FIELDS],
    )
    return out


@pytest.mark.parametrize("mode", ["fast", "exact"])
def test_answers_and_work_counters(named_base, mode):
    name, base = named_base
    qs = queries_for(base)
    ran = run_ops(QueryProcessor(base, QueryConfig(mode=mode)), qs)
    for op in ("k_best", "best_match", "matches_within"):
        counters = ran[op][1]
        assert counters == PINNED[name, mode, op], (op, dict(zip(PINNED_FIELDS, counters)))
    # The batch is a driver of the single-query path: same k, same work.
    assert ran["query_batch"][1] == ran["k_best"][1]
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


@pytest.mark.parametrize("mode", ["fast", "exact"])
@pytest.mark.parametrize("op", sorted(CANCELLED_OPS))
def test_a_cancelled_query_has_run_no_dtw(op, mode):
    """The check comes first: cancelled before its first chunk, an
    operation has verified no representative and refined no member."""
    base = walk_base()
    token = CancellationToken()
    token.cancel()
    with pytest.raises(DeadlineExceeded) as raised:
        CANCELLED_OPS[op](
            QueryProcessor(base, QueryConfig(mode=mode)),
            queries_for(base)[0],
            Deadline(token=token),
        )
    assert raised.value.progress["rep_dtw_calls"] == 0
    assert raised.value.progress["member_dtw_calls"] == 0


class _WatchedToken:
    """A never-cancelled token that logs every deadline check."""

    def __init__(self, events: list) -> None:
        self._events = events

    @property
    def cancelled(self) -> bool:
        self._events.append("check")
        return False


def watched_run(monkeypatch, call) -> tuple[list, QueryProcessor]:
    """Run *call(processor, deadline)*, logging failpoints, deadline
    checks, member gathers and kernel calls in the order they happen."""
    events: list = []
    base = matters_base()
    processor = QueryProcessor(base, QueryConfig(mode="exact"))
    gather = QueryProcessor._gather
    kernel = query_module.dtw_distance_batch

    def logged_gather(self, *args):
        events.append("gather")
        return gather(self, *args)

    def logged_kernel(*args, **kwargs):
        events.append("kernel")
        return kernel(*args, **kwargs)

    monkeypatch.setattr(faults, "fire", lambda point, **ctx: events.append(point))
    monkeypatch.setattr(QueryProcessor, "_gather", logged_gather)
    monkeypatch.setattr(query_module, "dtw_distance_batch", logged_kernel)
    call(processor, Deadline(token=_WatchedToken(events)))
    return events, processor


def assert_every_gather_follows_its_check(events: list) -> None:
    for at, event in enumerate(events):
        if event == "gather":
            assert events[at - 2 : at] == ["query.refine_unit", "check"], events[: at + 1]


def test_k_best_checks_once_per_drained_chunk(monkeypatch):
    q = queries_for(matters_base())[1]
    events, processor = watched_run(
        monkeypatch, lambda p, d: p.k_best_matches(q, 3, normalize=False, deadline=d)
    )
    gathers = events.count("gather")
    assert gathers > 1, "one chunk would not show the per-chunk boundary"
    assert events.count("query.refine_unit") == gathers
    assert_every_gather_follows_its_check(events)
    # One ragged cost call per chunk, plus at most one path-length call.
    member_kernels = [
        events[at + 1 : at + 3].count("kernel")
        for at, event in enumerate(events)
        if event == "gather"
    ]
    assert all(1 <= n <= 2 for n in member_kernels), member_kernels


def test_threshold_scan_checks_once_per_chunk(monkeypatch):
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
    assert events.count("gather") == chunks
    for at, event in enumerate(events):
        if event == "query.refine_unit":
            # Nothing of the chunk — not even its representatives' DTW —
            # runs between the failpoint and the deadline check, and the
            # chunk is one representative call, one gather and at most a
            # cost and a path-length call.
            assert events[at + 1 : at + 4] == ["check", "kernel", "gather"]
            after = events[at + 4 : at + 7]
            assert 1 <= (after + ["query.refine_unit"]).index("query.refine_unit") <= 2


@pytest.mark.parametrize("mode", ["fast", "exact"])
def test_path_lengths_only_for_rows_that_pass_the_raw_test(named_base, mode, monkeypatch):
    """The kernel tracks path lengths for ``member_path_calls`` rows, which
    is never more than the rows whose raw cost was computed."""
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
        assert 0 <= rows["cost"] - stats.rep_dtw_calls <= stats.member_dtw_calls
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
