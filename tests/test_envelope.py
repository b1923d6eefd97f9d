"""Unit tests for repro.distances.envelope."""

import numpy as np
import pytest

from repro.distances.envelope import keogh_envelope, keogh_envelope_batch
from repro.exceptions import ValidationError


def naive_envelope(values, radius):
    values = np.asarray(values, dtype=float)
    n = len(values)
    lower = np.empty(n)
    upper = np.empty(n)
    for i in range(n):
        lo = max(0, i - radius)
        hi = min(n, i + radius + 1)
        lower[i] = values[lo:hi].min()
        upper[i] = values[lo:hi].max()
    return lower, upper


class TestSlidingExtremes:
    def test_radius_zero_is_identity(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        lower, upper = keogh_envelope(values, 0)
        assert lower.tolist() == upper.tolist() == values

    def test_matches_naive_on_random_data(self):
        rng = np.random.default_rng(31)
        for radius in (0, 1, 2, 5, 20):
            values = rng.normal(size=40)
            lower, upper = keogh_envelope(values, radius)
            ref_lower, ref_upper = naive_envelope(values, radius)
            assert np.allclose(lower, ref_lower)
            assert np.allclose(upper, ref_upper)

    def test_radius_larger_than_input(self):
        values = [2.0, 9.0, 4.0]
        lower, upper = keogh_envelope(values, 100)
        assert lower.tolist() == [2.0, 2.0, 2.0]
        assert upper.tolist() == [9.0, 9.0, 9.0]

    def test_single_point(self):
        lower, upper = keogh_envelope([7.0], 3)
        assert lower.tolist() == [7.0]
        assert upper.tolist() == [7.0]

    def test_envelope_contains_input(self):
        rng = np.random.default_rng(33)
        values = rng.normal(size=64)
        for radius in (1, 3, 7):
            lower, upper = keogh_envelope(values, radius)
            assert (lower <= values).all()
            assert (values <= upper).all()

    def test_envelope_widens_with_radius(self):
        rng = np.random.default_rng(34)
        values = rng.normal(size=30)
        l1, u1 = keogh_envelope(values, 1)
        l4, u4 = keogh_envelope(values, 4)
        assert (l4 <= l1).all()
        assert (u4 >= u1).all()

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            keogh_envelope([1.0], -1)


class TestEnvelopeBatch:
    """Every row of the batch equals the scalar envelope, bit for bit."""

    @pytest.mark.parametrize("width", [1, 2, 7, 24])
    @pytest.mark.parametrize("radius", [0, 1, 2, 6, 7, 23, 24, 100])
    def test_rows_equal_scalar_envelope(self, width, radius):
        # Radii reach and pass the row width (every column sees the whole
        # row); width 1 is the single-column stack.
        rng = np.random.default_rng(35 + width)
        rows = rng.normal(size=(9, width)).round(1)  # rounded: ties occur
        lower, upper = keogh_envelope_batch(rows, radius)
        assert lower.shape == upper.shape == rows.shape
        for row, lo, hi in zip(rows, lower, upper):
            want_lo, want_hi = keogh_envelope(row, radius)
            assert np.array_equal(lo, want_lo)
            assert np.array_equal(hi, want_hi)

    def test_result_does_not_alias_the_input(self):
        rows = np.arange(12.0).reshape(3, 4)
        for radius in (0, 2):
            lower, upper = keogh_envelope_batch(rows, radius)
            lower += 1.0
            upper += 1.0
            assert np.array_equal(rows, np.arange(12.0).reshape(3, 4))

    def test_empty_stack(self):
        lower, upper = keogh_envelope_batch(np.empty((0, 5)), 2)
        assert lower.shape == upper.shape == (0, 5)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValidationError):
            keogh_envelope_batch(np.ones(4), 1)
        with pytest.raises(ValidationError):
            keogh_envelope_batch(np.ones((2, 4)), -1)
