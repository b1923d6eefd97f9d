"""E5 (headline): "several times faster than the fastest known method".

The paper's speed claim compares ONEX's online phase against the UCR
Suite.  We time best-match queries for both (plus the pruned raw scan)
over the same collection at two scales and report the speedup factor.
The absolute numbers are ours; the claim's *shape* — ONEX's per-query
latency a small multiple lower, widening with data size — is the
reproduction target (EXPERIMENTS.md records the measured factors).

``test_member_refinement_speedup`` additionally pins this repo's own
hot path: on a member-refinement-heavy configuration (exact mode, every
group refined unless provably prunable) the cascade must return the
brute-force scan's matches and be at least 3x faster than it.
"""

import os
import time

import numpy as np
import pytest

from repro.baselines.brute_force import BruteForceSearcher
from repro.baselines.ucr_suite import UcrSuiteSearcher
from repro.core.base import OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.query import QueryProcessor
from repro.data.matters import STATE_ABBREVIATIONS, build_matters_collection

SCALES = {"small": 20, "large": 50}


def make_setup(states: int, years: int = 16):
    dataset = build_matters_collection(
        indicators=("GrowthRate",),
        states=STATE_ABBREVIATIONS[:states],
        years=years,
        min_years=max(10, years - 6),
        seed=5,
    )
    # ST = 0.2 gives the strong-compaction regime the paper's speed claim
    # lives in (the recommender's looser suggestions land near here for
    # this collection); E7 sweeps the full ST range.
    base = OnexBase(
        dataset, BuildConfig(similarity_threshold=0.2, min_length=5, max_length=8)
    )
    base.build()
    rng = np.random.default_rng(55)
    queries = [rng.uniform(size=6) for _ in range(3)]
    return dataset, base, queries


@pytest.fixture(scope="module", params=sorted(SCALES))
def setup(request):
    return request.param, *make_setup(SCALES[request.param])


def test_onex_query(benchmark, setup):
    scale, dataset, base, queries = setup
    processor = QueryProcessor(base, QueryConfig(mode="fast", refine_groups=1))

    def run():
        return [processor.best_match(q, normalize=False) for q in queries]

    benchmark(run)
    benchmark.extra_info["scale"] = f"{scale} ({len(dataset)} series)"
    benchmark.extra_info["representatives"] = base.stats.groups


def test_ucr_suite_query(benchmark, setup):
    scale, dataset, base, queries = setup
    searcher = UcrSuiteSearcher(base.dataset)

    def run():
        return [searcher.best_match(q) for q in queries]

    benchmark(run)
    benchmark.extra_info["scale"] = f"{scale} ({len(dataset)} series)"


def test_brute_force_query(benchmark, setup):
    scale, dataset, base, queries = setup
    searcher = BruteForceSearcher(base.dataset)

    def run():
        return [searcher.best_match(q, base.lengths) for q in queries]

    benchmark(run)
    benchmark.extra_info["scale"] = f"{scale} ({len(dataset)} series)"


def test_member_refinement_speedup(benchmark):
    """The exact cascade vs the brute-force scan it must agree with.

    Exact mode is the member-refinement-heavy regime: every group whose
    transfer lower bound cannot rule it out is refined, so the member
    stage dominates.  Its answers must be the brute-force scan's — same
    reference, same distance, ``(distance, ref)`` order — and it must be
    several times faster than scanning every window with the same DTW
    kernel (8-12x on the development host; 3x is the floor).
    """
    dataset, base, _ = make_setup(SCALES["large"], years=40)
    rng = np.random.default_rng(97)
    queries = [rng.uniform(size=6) for _ in range(3)]
    cascade = QueryProcessor(base, QueryConfig(mode="exact"))
    brute = BruteForceSearcher(base.dataset)

    def timed(search):
        start = time.perf_counter()
        matches = [search(q) for q in queries]
        return time.perf_counter() - start, matches

    def measure():
        t_cascade, m_cascade = timed(
            lambda q: cascade.k_best_matches(q, 3, normalize=False)
        )
        t_brute, m_brute = timed(lambda q: brute.k_best_matches(q, 3, base.lengths))
        return t_cascade, t_brute, m_cascade, m_brute

    t_cascade, t_brute, m_cascade, m_brute = benchmark.pedantic(
        measure, rounds=3, iterations=1
    )
    for got, want in zip(m_cascade, m_brute):
        assert [(m.distance, m.ref) for m in got] == [
            (m.distance, m.ref) for m in want
        ], "the cascade's answer is not the brute-force scan's"
    stats = cascade.last_stats
    speedup = t_brute / t_cascade
    benchmark.extra_info["cascade_seconds"] = round(t_cascade, 4)
    benchmark.extra_info["brute_force_seconds"] = round(t_brute, 4)
    benchmark.extra_info["speedup_cascade_vs_brute_force"] = round(speedup, 2)
    benchmark.extra_info["member_dtw_calls"] = stats.member_dtw_calls
    benchmark.extra_info["member_path_calls"] = stats.member_path_calls
    # Wall-clock ratios are noisy on shared CI runners; there the answer
    # identity above is the gate and the factor is only reported
    # (ONEX_BENCH_SOFT=1).
    if os.environ.get("ONEX_BENCH_SOFT") != "1":
        assert speedup >= 3.0, (
            f"exact cascade only {speedup:.1f}x faster than the brute-force scan"
        )


def test_speedup_summary(benchmark):
    """One-shot measurement of the headline factors at a larger scale.

    Two readings are reported: ONEX answering its native variable-length
    question over every indexed length, and ONEX restricted to the
    query's own length — the exact question the UCR Suite answers, hence
    the apples-to-apples factor behind "several times faster".
    """
    dataset, base, queries = make_setup(SCALES["large"], years=40)
    onex = QueryProcessor(base, QueryConfig(mode="fast", refine_groups=1))
    ucr = UcrSuiteSearcher(base.dataset)
    brute = BruteForceSearcher(base.dataset)
    qlen = len(queries[0])

    def timed(fn):
        start = time.perf_counter()
        for q in queries:
            fn(q)
        return time.perf_counter() - start

    def measure():
        return (
            timed(lambda q: onex.best_match(q, normalize=False)),
            timed(
                lambda q: onex.best_match(q, normalize=False, lengths=[qlen])
            ),
            timed(ucr.best_match),
            timed(lambda q: brute.best_match(q, base.lengths)),
        )

    t_onex, t_onex_1len, t_ucr, t_brute = benchmark.pedantic(
        measure, rounds=3, iterations=1
    )
    benchmark.extra_info["onex_all_lengths_seconds"] = round(t_onex, 4)
    benchmark.extra_info["onex_single_length_seconds"] = round(t_onex_1len, 4)
    benchmark.extra_info["ucr_seconds"] = round(t_ucr, 4)
    benchmark.extra_info["brute_seconds"] = round(t_brute, 4)
    benchmark.extra_info["speedup_vs_ucr_same_question"] = round(
        t_ucr / t_onex_1len, 2
    )
    benchmark.extra_info["speedup_vs_ucr_all_lengths"] = round(t_ucr / t_onex, 2)
    benchmark.extra_info["speedup_vs_brute"] = round(t_brute / t_onex, 2)
    assert t_onex_1len < t_ucr, "ONEX should beat UCR on UCR's own question"
