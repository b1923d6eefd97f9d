"""Unit tests for repro.distances.lower_bounds."""

import numpy as np
import pytest

from repro.distances.dtw import dtw_distance
from repro.distances.envelope import keogh_envelope
from repro.distances.lower_bounds import lb_keogh, lb_keogh_terms, lb_kim
from repro.exceptions import ValidationError


class TestLbKim:
    def test_lower_bounds_dtw_random(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n, m = rng.integers(1, 12, size=2)
            x = rng.normal(size=n)
            y = rng.normal(size=m)
            assert lb_kim(x, y) <= dtw_distance(x, y) + 1e-9

    def test_lower_bounds_dtw_squared(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n, m = rng.integers(1, 10, size=2)
            x = rng.normal(size=n)
            y = rng.normal(size=m)
            got = lb_kim(x, y, ground="squared")
            assert got <= dtw_distance(x, y, ground="squared") + 1e-9

    def test_three_by_three_no_double_count(self):
        # Regression: diagonal 3x3 paths share the (1,1) cell between the
        # second and penultimate positions.
        x = [0.0, 10.0, 0.0]
        y = [0.0, 0.0, 0.0]
        assert lb_kim(x, y) <= dtw_distance(x, y) + 1e-9

    def test_identical_sequences(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert lb_kim(x, x) == 0.0

    def test_single_points(self):
        assert lb_kim([1.0], [4.0]) == 3.0


class TestLbKeogh:
    def test_zero_for_candidate_inside_envelope(self):
        q = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
        lower, upper = keogh_envelope(q, 1)
        assert lb_keogh(q, lower, upper) == 0.0

    def test_lower_bounds_banded_dtw(self):
        rng = np.random.default_rng(43)
        for radius in (0, 1, 2, 4):
            for _ in range(20):
                q = rng.normal(size=16)
                c = rng.normal(size=16)
                lower, upper = keogh_envelope(q, radius)
                lb = lb_keogh(c, lower, upper)
                assert lb <= dtw_distance(q, c, window=radius) + 1e-9

    def test_lower_bounds_banded_dtw_squared(self):
        rng = np.random.default_rng(44)
        q = rng.normal(size=20)
        c = rng.normal(size=20)
        lower, upper = keogh_envelope(q, 2)
        lb = lb_keogh(c, lower, upper, ground="squared")
        assert lb <= dtw_distance(q, c, window=2, ground="squared") + 1e-9

    def test_radius_zero_equals_euclidean(self):
        rng = np.random.default_rng(45)
        q = rng.normal(size=10)
        c = rng.normal(size=10)
        lower, upper = keogh_envelope(q, 0)
        assert lb_keogh(c, lower, upper) == pytest.approx(np.abs(q - c).sum())

    def test_terms_sum_to_bound(self):
        rng = np.random.default_rng(46)
        q = rng.normal(size=12)
        c = rng.normal(size=12)
        lower, upper = keogh_envelope(q, 1)
        terms = lb_keogh_terms(c, lower, upper)
        assert terms.sum() == pytest.approx(lb_keogh(c, lower, upper))
        assert (terms >= 0).all()

    def test_length_mismatch_rejected(self):
        lower, upper = keogh_envelope([1.0, 2.0], 0)
        with pytest.raises(ValidationError, match="lengths differ"):
            lb_keogh([1.0, 2.0, 3.0], lower, upper)
