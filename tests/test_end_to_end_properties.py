"""Hypothesis end-to-end properties of the full ONEX pipeline.

Each property builds a base over a randomised collection and checks the
system-level contracts: exactness of the exact mode against the raw
scan, the fast mode's transfer-inequality guarantee, group invariants, and
agreement between independent implementations of the same question.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import BruteForceSearcher
from repro.core.base import OnexBase
from repro.core.config import BuildConfig, QueryConfig
from repro.core.query import QueryProcessor
from repro.core.sensitivity import similarity_profile
from repro.data.dataset import TimeSeriesDataset
from repro.distances.dtw import dtw_path


def collections():
    """Small random collections: 2-4 series of 8-14 points in [0, 1]."""
    series = st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=8,
        max_size=14,
    )
    return st.lists(series, min_size=2, max_size=4)


def queries():
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=3,
        max_size=8,
    )


def build(arrays, st_value=0.08):
    dataset = TimeSeriesDataset.from_arrays(arrays, name="prop")
    base = OnexBase(
        dataset,
        BuildConfig(
            similarity_threshold=st_value, min_length=4, max_length=6, normalize=False
        ),
    )
    base.build()
    return base


@settings(max_examples=25, deadline=None)
@given(collections(), queries())
def test_exact_mode_equals_brute_force(arrays, query):
    base = build(arrays)
    exact = QueryProcessor(base, QueryConfig(mode="exact"))
    brute = BruteForceSearcher(base.dataset)
    a = exact.best_match(query, normalize=False)
    b = brute.best_match(query, base.lengths)
    assert math.isclose(a.distance, b.distance, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=25, deadline=None)
@given(collections(), queries())
# 1/3 - 1/4 > ST = 0.08: the additive "within ST of exact" bound this test
# used to assert is not a theorem, and Hypothesis replayed this draw from
# its database whenever it had found it once.
@example(
    [[0.0] * 8, [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0]],
    [0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
)
def test_fast_mode_never_beats_exact_and_is_bounded(arrays, query):
    """What DESIGN.md §2's transfer inequality gives for ``refine_groups=1``.

    With ``r*`` the representative fast mode ranks first, ``c*`` its
    group's Chebyshev radius, ``P*`` the optimal ``(q, r*)`` path, and
    ``rho = (n + m - 1) / max(n, m) < 2`` the longest-to-shortest path
    ratio of a length pair:

        d_exact <= d_fast <= (DTW(q, r*) + |P*| c*) / max(n, m*)      (upper)
        d_fast <= rho_o (d_exact + c_o) + rho* c*                      (chain)

    where ``o`` marks the group holding the exact optimum: ``r*`` ranks
    no worse than ``r_o`` by ``DTW / max(n, m)``, and the lower transfer
    bound ties ``DTW(q, r_o)`` to the optimum.  The slack is the groups'
    Chebyshev radii, scaled by at most 2 — not ``ST``.
    """
    base = build(arrays)
    fast = QueryProcessor(base, QueryConfig(mode="fast", refine_groups=1))
    exact = QueryProcessor(base, QueryConfig(mode="exact"))
    m_fast = fast.best_match(query, normalize=False)
    m_exact = exact.best_match(query, normalize=False)
    d_fast, d_exact = m_fast.distance, m_exact.distance
    assert d_fast >= d_exact - 1e-12
    n = len(query)

    def rho(length):
        return (n + length - 1) / max(n, length)

    refined = base.group(*m_fast.group)
    to_rep = dtw_path(np.asarray(query), refined.centroid)
    slack = to_rep.path_length * refined.cheb_radius
    assert d_fast <= (to_rep.distance + slack) / max(n, refined.length) + 1e-9
    optimum = base.group(*m_exact.group)
    assert d_fast <= (
        rho(optimum.length) * (d_exact + optimum.cheb_radius)
        + rho(refined.length) * refined.cheb_radius
        + 1e-9
    )


@settings(max_examples=20, deadline=None)
@given(collections())
def test_group_invariants_on_random_collections(arrays):
    base = build(arrays)
    base.validate()  # member-within-ST/2 and radii invariants


@settings(max_examples=20, deadline=None)
@given(collections(), queries(), st.floats(min_value=0.01, max_value=0.3))
def test_matches_within_agrees_with_sensitivity(arrays, query, threshold):
    base = build(arrays)
    processor = QueryProcessor(base)
    found = processor.matches_within(query, threshold, normalize=False)
    profile = similarity_profile(
        base, np.asarray(query), (threshold,), verify=True, normalize=False
    )
    assert profile.points[0].exact == len(found)


@settings(max_examples=20, deadline=None)
@given(collections(), queries())
def test_k_best_is_prefix_monotone(arrays, query):
    """The k-best list is a prefix of the (k+2)-best list."""
    base = build(arrays)
    processor = QueryProcessor(base, QueryConfig(mode="exact"))
    small = processor.k_best_matches(query, 2, normalize=False)
    large = processor.k_best_matches(query, 4, normalize=False)
    assert [m.ref for m in small] == [m.ref for m in large[:2]]
