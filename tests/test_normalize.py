"""Unit tests for repro.distances.normalize."""

import numpy as np
import pytest

from repro.distances.normalize import (
    RunningStats,
    minmax_normalize,
    minmax_params,
    sliding_mean_std,
    znormalize,
)
from repro.exceptions import ValidationError


class TestMinmax:
    def test_maps_to_unit_interval(self):
        out = minmax_normalize([2.0, 4.0, 6.0])
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_flat_input_maps_to_zero(self):
        assert minmax_normalize([5.0, 5.0, 5.0]).tolist() == [0.0, 0.0, 0.0]

    def test_explicit_bounds_shared_across_series(self):
        lo, hi = minmax_params([0.0, 10.0])
        a = minmax_normalize([0.0, 5.0], lo=lo, hi=hi)
        b = minmax_normalize([10.0], lo=lo, hi=hi)
        assert a.tolist() == [0.0, 0.5]
        assert b.tolist() == [1.0]

    def test_values_outside_bounds_extrapolate(self):
        out = minmax_normalize([-5.0, 15.0], lo=0.0, hi=10.0)
        assert out.tolist() == [-0.5, 1.5]

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            minmax_normalize([])

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValidationError, match="hi"):
            minmax_normalize([1.0], lo=2.0, hi=1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            minmax_normalize([np.nan])


class TestZnormalize:
    def test_zero_mean_unit_std(self):
        out = znormalize([1.0, 2.0, 3.0, 4.0])
        assert out.mean() == pytest.approx(0.0)
        assert out.std() == pytest.approx(1.0)

    def test_flat_input_maps_to_zero(self):
        assert znormalize([3.0, 3.0]).tolist() == [0.0, 0.0]

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            znormalize([])


class TestSlidingMeanStd:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=50)
        window = 7
        mean, std = sliding_mean_std(values, window)
        assert mean.shape == (44,)
        for i in range(44):
            chunk = values[i : i + window]
            assert mean[i] == pytest.approx(chunk.mean())
            assert std[i] == pytest.approx(chunk.std())

    def test_window_equal_to_length(self):
        values = np.array([1.0, 2.0, 3.0])
        mean, std = sliding_mean_std(values, 3)
        assert mean.shape == (1,)
        assert mean[0] == pytest.approx(2.0)

    def test_rejects_oversized_window(self):
        with pytest.raises(ValidationError, match="longer"):
            sliding_mean_std([1.0, 2.0], 3)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValidationError, match="positive"):
            sliding_mean_std([1.0, 2.0], 0)

    def test_std_never_negative_on_constant_data(self):
        # Round-off used to drive the variance slightly negative here.
        values = np.full(100, 1e8)
        _, std = sliding_mean_std(values, 10)
        assert (std >= 0).all()


    def test_near_flat_window_behind_large_values_matches_two_pass(self):
        """A spread of ~1e-11 after values of magnitude 1 is below what
        the cumulative sums can resolve; those windows are recomputed."""
        values = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.8e-11])
        mean, std = sliding_mean_std(values, 4)
        for i in range(values.size - 3):
            chunk = values[i : i + 4]
            assert mean[i] == pytest.approx(chunk.mean(), rel=1e-9, abs=1e-30)
            assert std[i] == pytest.approx(chunk.std(), rel=1e-9)
        assert std[-1] > 1e-12  # not flat, as znormalize decides too


class TestRunningStats:
    def test_matches_numpy(self):
        rng = np.random.default_rng(11)
        values = rng.normal(loc=3.0, scale=2.0, size=200)
        stats = RunningStats()
        stats.extend(values)
        assert stats.count == 200
        assert stats.mean == pytest.approx(values.mean())
        assert stats.std == pytest.approx(values.std())
        assert stats.minimum == values.min()
        assert stats.maximum == values.max()

    def test_single_observation(self):
        stats = RunningStats()
        stats.push(4.5)
        assert stats.mean == 4.5
        assert stats.variance == 0.0

    def test_empty_raises(self):
        stats = RunningStats()
        for attr in ("mean", "variance", "minimum", "maximum"):
            with pytest.raises(ValidationError):
                getattr(stats, attr)

    def test_rejects_nan(self):
        stats = RunningStats()
        with pytest.raises(ValidationError, match="non-finite"):
            stats.push(float("nan"))
