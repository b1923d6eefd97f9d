"""Shared fixtures for the experiment benchmarks (DESIGN.md §4).

Each ``bench_*.py`` file regenerates one paper artifact (figure or
headline claim).  Fixtures here build the datasets and bases once per
session so the measured callables isolate the phase under test.  Run::

    pytest benchmarks/ --benchmark-only

Numbers land in the pytest-benchmark table; experiment-level findings
(who wins, by what factor) are attached as ``extra_info`` and printed.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.base import OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.query import QueryProcessor
from repro.data.dataset import TimeSeriesDataset
from repro.data.electricity import build_electricity_collection
from repro.data.matters import build_matters_collection
from repro.data.synthetic import noisy_sine, warped_copy
from repro.data.timeseries import TimeSeries

#: Build parameters shared by the query-phase experiments.
MATTERS_BUILD = dict(similarity_threshold=0.1, min_length=5, max_length=8)


class ZeroBoundProcessor(QueryProcessor):
    """The rank-stage witness (DESIGN.md §1): the one lazy cascade under the
    trivial sound bound, which verifies every representative up front."""

    def _rank_bounds(self, q, reps):
        return np.zeros(reps.gids.size)


@pytest.fixture(scope="session")
def matters_growth() -> TimeSeriesDataset:
    """The demo's "MATTERS GrowthRate" dataset (50 states, 10-16 years)."""
    return build_matters_collection(
        indicators=("GrowthRate",), years=16, min_years=10, seed=2013
    )


@pytest.fixture(scope="session")
def matters_base(matters_growth) -> OnexBase:
    base = OnexBase(matters_growth, BuildConfig(**MATTERS_BUILD))
    base.build()
    return base


@pytest.fixture(scope="session")
def matters_fast_processor(matters_base) -> QueryProcessor:
    return QueryProcessor(matters_base, QueryConfig(mode="fast", refine_groups=1))


@pytest.fixture(scope="session")
def matters_exact_processor(matters_base) -> QueryProcessor:
    return QueryProcessor(matters_base, QueryConfig(mode="exact"))


@pytest.fixture(scope="session")
def electricity() -> TimeSeriesDataset:
    return build_electricity_collection(households=2, seed=417)


def _timed(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def make_warped_workload(
    *, series: int, length: int, queries: int, seed: int
) -> tuple[TimeSeriesDataset, list[np.ndarray]]:
    """Misaligned sine collection plus warped query sequences.

    This is the regime the paper's accuracy claim concerns: queries are
    time-warped variants of stored shapes, so pointwise/z-normalised
    fixed-length methods systematically mis-rank candidates while DTW in
    value space does not.
    """
    rng = np.random.default_rng(seed)
    arrays = [
        noisy_sine(
            length,
            period=float(rng.uniform(12.0, 30.0)),
            amplitude=float(rng.uniform(0.5, 1.5)),
            phase=float(rng.uniform(0.0, 6.28)),
            noise=0.05,
            seed=rng,
        )
        for _ in range(series)
    ]
    dataset = TimeSeriesDataset(
        [TimeSeries(f"sine-{k}", a) for k, a in enumerate(arrays)],
        name=f"warped-{series}",
    )
    lo, hi = dataset.global_bounds()
    query_list = []
    for _ in range(queries):
        src = arrays[int(rng.integers(series))]
        qlen = int(rng.integers(10, 15))
        start = int(rng.integers(0, length - qlen + 1))
        window = src[start : start + qlen]
        query_list.append(warped_copy(window, max_stretch=2, noise=0.02, seed=rng))
    return dataset, query_list
