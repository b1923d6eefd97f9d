"""Hypothesis property tests for the baseline searchers.

Soundness and exactness contracts that must hold on *any* input, not
just the benchmark workloads: SPRING reports true subsequence-DTW
distances under its threshold, and the UCR Suite returns the true
z-normalised banded minimum.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.spring import SpringMatcher
from repro.baselines.ucr_suite import UcrSuiteSearcher
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.distances.dtw import dtw_distance
from repro.distances.normalize import znormalize

values = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(values, min_size=2, max_size=6),
    st.lists(values, min_size=6, max_size=25),
    st.floats(min_value=0.5, max_value=20.0),
)
def test_spring_reports_are_sound(pattern, stream, epsilon):
    """Every SPRING report is a true sub-threshold subsequence match.

    The reported distance is the cost of a *valid* warping path over the
    reported range, hence an upper bound on the true subsequence DTW and
    within epsilon.  It equals the true DTW exactly up to the first
    report; after the paper's overlap-reset step, a cheaper path that was
    shadowed by an overlapping (since-reported) one can be lost, so later
    reports may carry a slightly suboptimal — still sub-threshold — cost.
    """
    matcher = SpringMatcher(pattern, epsilon=epsilon)
    reports = matcher.extend(stream) + matcher.finish()
    for k, match in enumerate(reports):
        assert 0 <= match.start <= match.end < len(stream)
        true = dtw_distance(pattern, stream[match.start : match.end + 1])
        assert match.distance >= true - 1e-9
        assert match.distance <= epsilon + 1e-9
        if k == 0:  # before any reset the DP is the unrestricted optimum
            assert math.isclose(match.distance, true, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(values, min_size=2, max_size=6),
    st.lists(values, min_size=6, max_size=25),
)
def test_spring_finds_the_global_optimum(pattern, stream):
    """With epsilon above the optimum, some report achieves it."""
    stream = np.asarray(stream)
    best = math.inf
    for s in range(len(stream)):
        for e in range(s, len(stream)):
            best = min(best, dtw_distance(pattern, stream[s : e + 1]))
    matcher = SpringMatcher(pattern, epsilon=best + 1.0)
    reports = matcher.extend(stream) + matcher.finish()
    assert reports
    assert min(m.distance for m in reports) == pytest.approx(best, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(values, min_size=4, max_size=8),
    st.lists(st.lists(values, min_size=10, max_size=16), min_size=1, max_size=3),
)
@example(
    # The window [0, 0, 0, 7.8e-11] has spread ~3e-11: not flat to the
    # two-pass ``znormalize``, but the running sums (which have 1s behind
    # them) used to cancel it to exactly 0 and call it flat.
    query=[-1.0, 0.0, -1.0, 0.0],
    arrays=[[0.0] * 10, [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.8e-11]],
)
def test_ucr_suite_returns_true_minimum(query, arrays):
    dataset = TimeSeriesDataset(
        [TimeSeries(f"s{k}", a) for k, a in enumerate(arrays)]
    )
    m = len(query)
    if all(len(a) < m for a in arrays):
        return  # no candidate windows exist; covered by unit tests
    searcher = UcrSuiteSearcher(dataset, band_fraction=0.2)
    match = searcher.best_match(query)
    radius = int(0.2 * m)
    q = znormalize(query)
    best = math.inf
    for series in dataset:
        for start in range(len(series) - m + 1):
            c = znormalize(series.values[start : start + m])
            best = min(best, dtw_distance(q, c, window=radius, ground="squared"))
    assert match.squared_distance == pytest.approx(best, abs=1e-9)
