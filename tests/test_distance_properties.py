"""Hypothesis property tests for the distance substrate.

These encode the formal statements from DESIGN.md §2: kernel agreement,
metric axioms, lower-bound validity, and the ED->DTW transfer lemma that
justifies the entire ONEX architecture.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distances.dtw import (
    dtw_cost_matrix,
    dtw_distance,
    dtw_distance_early_abandon,
    dtw_path,
)
from repro.distances.envelope import keogh_envelope
from repro.distances.lower_bounds import lb_keogh, lb_kim
from repro.distances.metrics import normalized_euclidean
from repro.distances.registry import get_metric
from tests.test_bounds import transfer_interval

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def seq(min_size=1, max_size=16):
    return st.lists(finite_floats, min_size=min_size, max_size=max_size)


@settings(max_examples=150, deadline=None)
@given(seq(), seq())
def test_vectorised_kernel_agrees_with_row_scan(x, y):
    """The anti-diagonal kernel and the row-scan matrix must agree."""
    fast = dtw_distance(x, y)
    matrix = dtw_cost_matrix(x, y)[-1, -1]
    assert math.isclose(fast, matrix, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=150, deadline=None)
@given(seq(), seq())
def test_dtw_path_distance_agrees_with_kernel(x, y):
    res = dtw_path(x, y)
    assert math.isclose(res.distance, dtw_distance(x, y), rel_tol=1e-9, abs_tol=1e-9)
    # Path cost re-summed by hand equals the reported distance.
    total = sum(abs(x[i] - y[j]) for i, j in res.path)
    assert math.isclose(total, res.distance, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(seq(), seq())
def test_dtw_symmetry(x, y):
    assert math.isclose(
        dtw_distance(x, y), dtw_distance(y, x), rel_tol=1e-9, abs_tol=1e-9
    )


@settings(max_examples=100, deadline=None)
@given(seq())
def test_dtw_identity(x):
    assert dtw_distance(x, x) == 0.0


@settings(max_examples=100, deadline=None)
@given(seq(min_size=2, max_size=12), st.integers(min_value=0, max_value=6))
def test_banded_dtw_upper_bounds_unconstrained(x, window):
    rng = np.random.default_rng(len(x))
    y = rng.normal(size=len(x)).tolist()
    assert dtw_distance(x, y) <= dtw_distance(x, y, window=window) + 1e-9


@settings(max_examples=100, deadline=None)
@given(seq(min_size=3, max_size=14), seq(min_size=3, max_size=14))
def test_dtw_bounded_by_euclidean_when_equal_length(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    assert dtw_distance(x, y) <= get_metric("cityblock").pair(x, y, None)[0] + 1e-9


@settings(max_examples=150, deadline=None)
@given(seq(), seq())
def test_lb_kim_never_exceeds_dtw(x, y):
    assert lb_kim(x, y) <= dtw_distance(x, y) + 1e-9


@settings(max_examples=100, deadline=None)
@given(seq(min_size=4, max_size=14), st.integers(min_value=0, max_value=5), st.randoms())
def test_lb_keogh_never_exceeds_banded_dtw(q, radius, rnd):
    c = [rnd.uniform(-100, 100) for _ in q]
    lower, upper = keogh_envelope(q, radius)
    assert lb_keogh(c, lower, upper) <= dtw_distance(q, c, window=radius) + 1e-9


@settings(max_examples=150, deadline=None)
@given(
    seq(min_size=2, max_size=12),
    seq(min_size=2, max_size=12),
    st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=2, max_size=12),
    st.sampled_from([None, 0, 1, 2, 3]),
)
# The optimal (q, s) path outruns both lengths (4 cells on 3 x 3).
@example(q=[-3.0, 0.0, -2.0], r=[2.0, -4.0, 3.0], noise=[-1.0, 1.0, -1.0], window=None)
def test_transfer_lemma_contains_true_dtw(q, r, noise, window):
    """The central ONEX theorem: DTW(q,s) lies within the transfer bounds,
    unconstrained or under the Sakoe–Chiba band exact mode prunes with."""
    n = min(len(r), len(noise))
    r = r[:n]
    s = [r_i + d_i for r_i, d_i in zip(r, noise[:n])]
    lower, upper = transfer_interval(q, r, s, window)
    true = dtw_distance(q, s, window=window)
    assert lower <= true + 1e-9
    assert true <= upper + 1e-9


@settings(max_examples=100, deadline=None)
@given(seq(min_size=2, max_size=12), seq(min_size=2, max_size=12))
def test_early_abandon_exact_or_inf(x, y):
    exact = dtw_distance(x, y)
    threshold = exact * 0.9
    got = dtw_distance_early_abandon(x, y, threshold)
    if exact <= threshold:  # only when exact == 0
        assert math.isclose(got, exact, abs_tol=1e-12)
    else:
        assert math.isinf(got)
    got_loose = dtw_distance_early_abandon(x, y, exact + 1.0)
    assert math.isclose(got_loose, exact, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(seq(min_size=1, max_size=16), seq(min_size=1, max_size=16))
def test_normalized_euclidean_triangle_inequality(x, y):
    """ED_n is a metric; the group construction relies on its triangle."""
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    z = [(a + b) / 2 + 1.0 for a, b in zip(x, y)]
    dxz = normalized_euclidean(x, z)
    dzy = normalized_euclidean(z, y)
    dxy = normalized_euclidean(x, y)
    assert dxy <= dxz + dzy + 1e-9
