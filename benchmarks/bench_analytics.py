"""E17: the analytics layer on the batched pruning cascade.

The seasonal verification, the verified sensitivity profile, and the
threshold recommendation were rebuilt on the PR1–PR3 batched machinery
(DESIGN.md §4) with the seed scalar verifier / profile kept as private
same-signature references (``_verify_scalar``, ``_profile_scalar``) that
only a substitution reaches.  This experiment measures both sides of each
operation on the interactive demo configuration — the scalar side by
``monkeypatch.setattr``, the recommender with and without ``base=`` — and
*gates on exactness*: every timed pair must return identical results, so
the speedups are pure execution-strategy wins.

Ratio floors are asserted locally and reported-only on shared CI runners
(``ONEX_BENCH_SOFT=1``); the exactness gates always hold.
"""

import os
import time

import numpy as np
import pytest

from repro.core import seasonal, sensitivity
from repro.core.base import OnexBase
from repro.core.config import BuildConfig
from repro.core.seasonal import find_seasonal_patterns
from repro.core.sensitivity import similarity_profile
from repro.core.threshold import recommend_thresholds
from repro.data.matters import STATE_ABBREVIATIONS, build_matters_collection
from repro.data.timeseries import TimeSeries

SOFT = os.environ.get("ONEX_BENCH_SOFT") == "1"

GRID = (0.01, 0.02, 0.05, 0.1, 0.15, 0.2)


@pytest.fixture(scope="module")
def headline_growth():
    """The 50-states x 40-years headline collection."""
    return build_matters_collection(
        indicators=("GrowthRate",),
        states=STATE_ABBREVIATIONS[:50],
        years=40,
        min_years=34,
        seed=5,
    )


@pytest.fixture(scope="module")
def headline_base(headline_growth) -> OnexBase:
    base = OnexBase(
        headline_growth,
        BuildConfig(similarity_threshold=0.2, min_length=5, max_length=8),
    )
    base.build()
    return base


@pytest.fixture(scope="module")
def growth_panel(headline_growth) -> TimeSeries:
    """The 50-state x 40-year GrowthRate panel stitched into one long
    series — the single-series workload the Seasonal View mines."""
    return TimeSeries(
        "US-50/GrowthRate",
        np.concatenate([s.values for s in headline_growth]),
    )


def _timed(fn, repeats: int = 3):
    best, out = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def test_seasonal_batched_vs_scalar(benchmark, growth_panel, monkeypatch):
    """Condensed-pairwise verification vs the seed per-pair scalar scan."""
    args = (growth_panel, 12, 0.1)

    patterns = benchmark.pedantic(
        find_seasonal_patterns, args=args, rounds=3, iterations=1
    )
    t_batched, _ = _timed(lambda: find_seasonal_patterns(*args))
    monkeypatch.setattr(seasonal, "_verify_batched", seasonal._verify_scalar)
    t_scalar, scalar = _timed(lambda: find_seasonal_patterns(*args))

    assert [(p.starts, p.max_pairwise_dtw) for p in patterns] == [
        (p.starts, p.max_pairwise_dtw) for p in scalar
    ], "batched seasonal verification changed the patterns"
    speedup = t_scalar / t_batched
    benchmark.extra_info["patterns"] = len(patterns)
    benchmark.extra_info["scalar_seconds"] = round(t_scalar, 4)
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 2)
    if not SOFT:
        assert speedup >= 3.0, f"seasonal cascade only {speedup:.2f}x"


def test_verified_profile_batched_vs_scalar(benchmark, headline_base, monkeypatch):
    """One stacked member-DTW call per bucket vs one scalar ``dtw_path``
    per ambiguous member."""
    rng = np.random.default_rng(55)
    queries = [rng.uniform(size=6) for _ in range(3)]

    def run():
        return [
            similarity_profile(headline_base, q, GRID, verify=True, normalize=False)
            for q in queries
        ]

    batched = benchmark.pedantic(run, rounds=3, iterations=1)
    t_batched, _ = _timed(run)
    monkeypatch.setattr(sensitivity, "_profile_batched", sensitivity._profile_scalar)
    t_scalar, scalar = _timed(run)

    for a, b in zip(batched, scalar):
        assert a.points == b.points and a.candidates == b.candidates, (
            "batched profile changed the counts"
        )
    speedup = t_scalar / t_batched
    benchmark.extra_info["candidates"] = batched[0].candidates
    benchmark.extra_info["scalar_seconds"] = round(t_scalar, 4)
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 2)
    if not SOFT:
        assert speedup >= 3.0, f"verified profile only {speedup:.2f}x"


def test_recommend_base_sampler_vs_standalone(benchmark, headline_growth, headline_base):
    """The one sampler over the base's normalised store vs over a freshly
    re-normalised collection: ``base=`` changes the cost, not the answer."""
    via_base = benchmark.pedantic(
        recommend_thresholds,
        args=(headline_growth, 6),
        kwargs={"base": headline_base},
        rounds=5,
        iterations=1,
    )
    t_standalone, standalone = _timed(
        lambda: recommend_thresholds(headline_growth, 6), repeats=5
    )
    t_base, _ = _timed(
        lambda: recommend_thresholds(headline_growth, 6, base=headline_base),
        repeats=5,
    )
    assert via_base == standalone, "base sampler changed the recommendation"
    benchmark.extra_info["standalone_seconds"] = round(t_standalone, 5)
    benchmark.extra_info["speedup_vs_standalone"] = round(
        t_standalone / t_base, 2
    )
