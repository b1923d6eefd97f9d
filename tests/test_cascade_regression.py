"""The representative cascade answers exactly and does exactly the pinned work.

Two small bases, both query modes, every read operation.  Exact-mode
answers are checked against a brute-force scan that shares no code with
the cascade beyond the row-scan ``dtw_path``; the work counters are
pinned to what the per-length cascade (one kernel call per length bucket
of a chunk) counted before the ragged kernel replaced it, so a change to
*which* representatives or members get a DTW call shows up here.
"""

import numpy as np
import pytest

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

PINNED_FIELDS = (
    "rep_dtw_calls",
    "member_dtw_calls",
    "groups_refined",
    "rep_lb_prunes",
    "rep_dtw_skipped",
)

#: ``(base, mode, op) -> PINNED_FIELDS`` values counted at commit 152ae78.
PINNED = {
    ("walk", "fast", "k_best"): [112, 13, 5, 0, 662],
    ("walk", "fast", "best_match"): [112, 6, 3, 0, 662],
    ("walk", "fast", "matches_within"): [463, 685, 326, 311, 311],
    ("walk", "fast", "query_batch"): [112, 13, 5, 0, 662],
    ("walk", "exact", "k_best"): [200, 316, 110, 574, 574],
    ("walk", "exact", "best_match"): [177, 289, 106, 597, 597],
    ("walk", "exact", "matches_within"): [463, 685, 326, 311, 311],
    ("walk", "exact", "query_batch"): [384, 490, 262, 387, 387],
    ("matters", "fast", "k_best"): [80, 25, 3, 0, 133],
    ("matters", "fast", "best_match"): [80, 25, 3, 0, 133],
    ("matters", "fast", "matches_within"): [180, 1064, 159, 33, 33],
    ("matters", "fast", "query_batch"): [80, 25, 3, 0, 133],
    ("matters", "exact", "k_best"): [213, 1100, 213, 0, 0],
    ("matters", "exact", "best_match"): [213, 903, 213, 0, 0],
    ("matters", "exact", "matches_within"): [180, 1064, 159, 33, 33],
    ("matters", "exact", "query_batch"): [202, 1708, 187, 8, 8],
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
    for op, (answers, counters) in ran.items():
        assert counters == PINNED[name, mode, op], (op, dict(zip(PINNED_FIELDS, counters)))
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


def test_threshold_scan_checks_the_deadline_before_any_kernel_work():
    """The per-bucket check comes first: a cancelled scan has run no DTW."""
    base = walk_base()
    token = CancellationToken()
    token.cancel()
    with pytest.raises(DeadlineExceeded) as raised:
        QueryProcessor(base, QueryConfig(mode="exact")).matches_within(
            queries_for(base)[0], 0.05, deadline=Deadline(token=token)
        )
    assert raised.value.progress["rep_dtw_calls"] == 0


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
