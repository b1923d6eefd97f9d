"""Unit tests for repro.distances.dtw."""

import math

import numpy as np
import pytest

from repro.distances.bounds import path_multiplicities
from repro.distances.dtw import (
    dtw_cost_matrix,
    dtw_distance,
    dtw_distance_early_abandon,
    dtw_path,
    effective_band,
)
from repro.exceptions import ValidationError


def brute_force_dtw(x, y, ground="l1"):
    """Reference O(n*m) DP written independently of the library kernels."""
    n, m = len(x), len(y)
    cost = np.full((n + 1, m + 1), math.inf)
    cost[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            diff = x[i - 1] - y[j - 1]
            d = diff * diff if ground == "squared" else abs(diff)
            cost[i, j] = d + min(cost[i - 1, j], cost[i, j - 1], cost[i - 1, j - 1])
    return cost[n, m]


class TestEffectiveBand:
    def test_none_passthrough(self):
        assert effective_band(5, 5, None) is None

    def test_widened_to_length_difference(self):
        assert effective_band(10, 4, 2) == 6

    def test_kept_when_wide_enough(self):
        assert effective_band(10, 9, 5) == 5

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            effective_band(5, 5, -1)


class TestDtwDistance:
    def test_identical_sequences_zero(self):
        x = [1.0, 2.0, 3.0, 2.0]
        assert dtw_distance(x, x) == 0.0

    def test_known_small_case(self):
        # x=[0,1], y=[0,0,1]: optimal path duplicates the 0.
        assert dtw_distance([0, 1], [0, 0, 1]) == 0.0

    def test_single_points(self):
        assert dtw_distance([3.0], [5.0]) == 2.0

    def test_one_vs_many(self):
        # Every element of y matches the single x point.
        assert dtw_distance([1.0], [2.0, 3.0]) == pytest.approx(3.0)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n, m = rng.integers(1, 15, size=2)
            x = rng.normal(size=n)
            y = rng.normal(size=m)
            assert dtw_distance(x, y) == pytest.approx(brute_force_dtw(x, y))

    def test_matches_reference_squared(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.normal(size=9)
            y = rng.normal(size=12)
            got = dtw_distance(x, y, ground="squared")
            assert got == pytest.approx(brute_force_dtw(x, y, ground="squared"))

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=10)
        y = rng.normal(size=13)
        assert dtw_distance(x, y) == pytest.approx(dtw_distance(y, x))

    def test_at_most_euclidean_for_equal_lengths(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        assert dtw_distance(x, y) <= np.abs(x - y).sum() + 1e-9

    def test_window_zero_equals_euclidean(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        assert dtw_distance(x, y, window=0) == pytest.approx(np.abs(x - y).sum())

    def test_window_monotonic_in_radius(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=18)
        y = rng.normal(size=18)
        dists = [dtw_distance(x, y, window=w) for w in (0, 1, 2, 4, 8, None)]
        for tight, loose in zip(dists, dists[1:]):
            assert loose <= tight + 1e-9

    def test_normalized_divides_by_path_length(self):
        x = [0.0, 1.0, 2.0]
        y = [0.0, 1.0, 2.0]
        assert dtw_distance(x, y, normalized=True) == 0.0
        res = dtw_path([0.0, 4.0], [0.0, 0.0, 4.0])
        assert dtw_distance([0.0, 4.0], [0.0, 0.0, 4.0], normalized=True) == (
            pytest.approx(res.distance / res.path_length)
        )

    def test_invalid_ground_rejected(self):
        with pytest.raises(ValidationError, match="ground"):
            dtw_distance([1.0], [1.0], ground="l3")

    @pytest.mark.parametrize(
        "x, y, kwargs",
        [
            ([[1.0, 2.0]], [3.0], {}),  # a (1, 2) window, not a paired stack
            ([3.0], [[1.0, 2.0]], {}),
            ([[1.0, 2.0], [0.5, 0.0]], [[3.0, 1.0]], {}),
            ([[1.0, 2.0], [0.5, 0.0]], [[3.0, 1.0, 0.0]], {}),
            ([[1.0], [2.0]], [[3.0], [1.0], [4.0]], {"window": 0}),
            ([[1.0, 2.0]], [[3.0, 1.0]], {"ground": "squared"}),
            ([1.0, 2.0, 5.0], [3.0], {"ground": "squared", "window": 1}),
            ([1.0, 2.0], [0.0, 2.0, 4.0], {"window": 0}),
            ([[[1.0]]], [1.0], {}),
            ([], [1.0], {}),
            ([1.0, float("nan")], [1.0], {}),
        ],
    )
    def test_reads_its_operands_as_dtw_path_does(self, x, y, kwargs):
        """Equal to ``dtw_path(x, y).distance``, or both raise."""
        try:
            want = dtw_path(x, y, **kwargs).distance
        except ValidationError:
            with pytest.raises(ValidationError):
                dtw_distance(x, y, **kwargs)
        else:
            assert dtw_distance(x, y, **kwargs) == want


class TestDtwCostMatrix:
    def test_corner_is_distance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=8)
        y = rng.normal(size=11)
        cost = dtw_cost_matrix(x, y)
        assert cost[-1, -1] == pytest.approx(dtw_distance(x, y))

    def test_prefix_property(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=6)
        y = rng.normal(size=7)
        cost = dtw_cost_matrix(x, y)
        for i in range(1, 6):
            for j in range(1, 7):
                assert cost[i, j] == pytest.approx(
                    brute_force_dtw(x[: i + 1], y[: j + 1])
                )

    def test_band_excludes_cells(self):
        cost = dtw_cost_matrix(np.zeros(6), np.zeros(6), window=1)
        assert math.isinf(cost[0, 3])
        assert math.isinf(cost[5, 1])
        assert cost[5, 5] == 0.0


class TestDtwPath:
    def test_path_endpoints(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=7)
        y = rng.normal(size=9)
        res = dtw_path(x, y)
        assert res.path[0] == (0, 0)
        assert res.path[-1] == (6, 8)

    def test_path_is_monotone_and_contiguous(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=10)
        y = rng.normal(size=6)
        res = dtw_path(x, y)
        for (i0, j0), (i1, j1) in zip(res.path, res.path[1:]):
            assert (i1 - i0, j1 - j0) in {(0, 1), (1, 0), (1, 1)}

    def test_path_cost_equals_distance(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=9)
        y = rng.normal(size=12)
        res = dtw_path(x, y)
        total = sum(abs(x[i] - y[j]) for i, j in res.path)
        assert total == pytest.approx(res.distance)
        assert res.distance == pytest.approx(dtw_distance(x, y))

    def test_path_length_bounds(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=8)
        y = rng.normal(size=5)
        res = dtw_path(x, y)
        assert max(8, 5) <= res.path_length <= 8 + 5 - 1

    def test_multiplicities_sum_to_path_length(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=6)
        y = rng.normal(size=9)
        res = dtw_path(x, y)
        on_x = path_multiplicities(res.path, 6, axis=0)
        assert on_x.sum() == res.path_length
        assert path_multiplicities(res.path, 9, axis=1).sum() == res.path_length
        assert (on_x >= 1).all()

    def test_normalized_distance(self):
        x = [0.0, 1.0]
        res = dtw_path(x, x)
        assert res.normalized_distance == 0.0

    def test_infeasible_band_raises(self):
        # A 1-point vs 5-point alignment is always feasible, but the matrix
        # band is widened automatically; verify no spurious failure.
        res = dtw_path([1.0], [1.0, 1.0, 1.0, 1.0, 1.0], window=0)
        assert res.distance == 0.0


class TestEarlyAbandon:
    def test_exact_when_under_threshold(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            exact = dtw_distance(x, y)
            got = dtw_distance_early_abandon(x, y, exact + 1.0)
            assert got == pytest.approx(exact)

    def test_inf_when_over_threshold(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=10)
        y = rng.normal(size=10) + 100.0
        assert math.isinf(dtw_distance_early_abandon(x, y, 1.0))

    def test_threshold_exactly_at_distance_not_abandoned(self):
        x = [0.0, 0.0]
        y = [1.0, 1.0]
        exact = dtw_distance(x, y)
        assert dtw_distance_early_abandon(x, y, exact) == pytest.approx(exact)

    def test_respects_window(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        exact = dtw_distance(x, y, window=2)
        got = dtw_distance_early_abandon(x, y, exact + 1.0, window=2)
        assert got == pytest.approx(exact)

    def test_cumulative_bound_preserves_exactness(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        exact = dtw_distance(x, y)
        cb = np.zeros(len(x) + 1)  # trivial (all-zero) remaining bound
        got = dtw_distance_early_abandon(x, y, exact + 0.5, cumulative_bound=cb)
        assert got == pytest.approx(exact)

    def test_rejects_short_cumulative_bound(self):
        with pytest.raises(ValidationError, match="cumulative_bound"):
            dtw_distance_early_abandon(
                [1.0, 2.0], [1.0, 2.0], 10.0, cumulative_bound=np.zeros(1)
            )

    def test_rejects_infinite_threshold(self):
        with pytest.raises(ValidationError, match="finite"):
            dtw_distance_early_abandon([1.0], [1.0], math.inf)
