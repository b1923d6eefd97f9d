"""Unit tests for DTW variants (DDTW, WDTW, DBA)."""

import numpy as np
import pytest

from repro.distances import variants
from repro.distances.dtw import dtw_distance
from repro.distances.registry import _derivative_rows, get_metric
from repro.distances.variants import dtw_barycenter, weighted_dtw
from repro.exceptions import ValidationError


def ddtw(x, y):
    """``(raw, normalized)`` DDTW through the registry's served kernel."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    return get_metric("derivative_dtw").pair(x, y, None)


class TestDerivative:
    def test_linear_series_constant_derivative(self):
        d = _derivative_rows((np.arange(10.0) * 2.0)[None])[0]
        assert np.allclose(d, 2.0)

    def test_constant_series_zero_derivative(self):
        assert np.allclose(_derivative_rows(np.full((1, 5), 3.0)), 0.0)

    def test_length_preserved(self):
        rows = np.random.default_rng(0).normal(size=(2, 17))
        assert _derivative_rows(rows).shape == (2, 17)

    def test_requires_three_points(self):
        with pytest.raises(ValidationError):
            ddtw([1.0, 2.0], [1.0, 2.0])


class TestDerivativeDtw:
    def test_level_offset_invariance(self):
        rng = np.random.default_rng(171)
        x = rng.normal(size=20).cumsum()
        assert ddtw(x, x + 100.0)[0] == pytest.approx(0.0, abs=1e-9)

    def test_plain_dtw_not_offset_invariant(self):
        rng = np.random.default_rng(172)
        x = rng.normal(size=20).cumsum()
        assert dtw_distance(x, x + 100.0) > 100.0

    def test_identity(self):
        x = np.sin(np.arange(15.0))
        assert ddtw(x, x)[0] == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(173)
        x = rng.normal(size=12)
        y = rng.normal(size=14)
        assert ddtw(x, y)[0] == pytest.approx(ddtw(y, x)[0])

    def test_normalized_variant(self):
        rng = np.random.default_rng(174)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        raw, normalized = ddtw(x, y)
        assert normalized <= raw


class TestWeightedDtw:
    def test_identity_zero(self):
        x = np.arange(10.0)
        assert weighted_dtw(x, x) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(175)
        x = rng.normal(size=9)
        y = rng.normal(size=11)
        assert weighted_dtw(x, y) == pytest.approx(weighted_dtw(y, x))

    def test_flat_weighting_recovers_half_dtw(self, monkeypatch):
        """g=0 makes every weight w_max/2, i.e. plain DTW scaled by 0.5."""
        rng = np.random.default_rng(176)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        monkeypatch.setattr(variants, "_G", 0.0)
        monkeypatch.setattr(variants, "_W_MAX", 1.0)
        assert weighted_dtw(x, y) == pytest.approx(0.5 * dtw_distance(x, y))

    def test_penalises_heavy_warping_more_than_dtw(self, monkeypatch):
        """A shifted spike is free for DTW but costs WDTW off-diagonal
        weight; relative to aligned distance the order flips."""
        n = 20
        x = np.zeros(n)
        y = np.zeros(n)
        x[2] = 5.0
        y[n - 3] = 5.0  # same spike, far apart in time
        plain = dtw_distance(x, y)
        monkeypatch.setattr(variants, "_G", 1.0)
        weighted = weighted_dtw(x, y)
        assert plain == pytest.approx(0.0, abs=1e-9)
        assert weighted >= 0.0  # never negative; warping itself is free in
        # both, but the spike must match a zero far away for WDTW's path
        # to stay near the diagonal — either way costs something:
        assert weighted > 0.0 or plain == 0.0

    def test_sigmoid_center_semantics(self, monkeypatch):
        """Jeong et al.'s weight is centred at m/2: offsets below the
        centre get *cheaper* as g grows, offsets beyond it get costlier —
        so a mild phase shift costs less at high g while matching across
        more than half the series costs more."""
        x = np.sin(np.arange(20.0) / 3.0)
        y = np.roll(x, 4)  # offset 4 < centre 10

        def at_steepness(a, b):
            out = []
            for g in (0.01, 0.2, 1.0):
                monkeypatch.setattr(variants, "_G", g)
                out.append(weighted_dtw(a, b))
            return out

        near = at_steepness(x, y)
        assert near == sorted(near, reverse=True)
        # Spikes 16 apart force path cells far beyond the centre.
        a = np.zeros(20)
        b = np.zeros(20)
        a[2] = 5.0
        b[18] = 5.0
        far = at_steepness(a, b)
        assert far == sorted(far)

    def test_served_as_the_weighted_dtw_metric(self):
        rng = np.random.default_rng(178)
        x, y = rng.normal(size=9), rng.normal(size=9)
        raw, normalized = get_metric("weighted_dtw").pair(x, y, 2)
        assert raw == weighted_dtw(x, y, window=2)
        assert normalized == raw / 9


class TestDba:
    def test_average_of_identical_members_is_member(self):
        x = np.sin(np.arange(20.0) / 4.0)
        avg = dtw_barycenter([x, x, x])
        assert np.allclose(avg, x)

    def test_reduces_dtw_objective_vs_arithmetic_mean(self):
        """On phase-shifted sines, DBA beats the pointwise mean."""
        t = np.arange(30.0)
        members = [np.sin(2 * np.pi * (t + shift) / 15.0) for shift in (0, 2, 4)]
        mean = np.mean(members, axis=0)
        dba = dtw_barycenter(members, iterations=15)
        obj_mean = sum(dtw_distance(mean, m) for m in members)
        obj_dba = sum(dtw_distance(dba, m) for m in members)
        assert obj_dba < obj_mean

    def test_heterogeneous_lengths_with_fixed_output(self):
        members = [np.arange(10.0), np.arange(14.0) * 10 / 14, np.arange(12.0) * 10 / 12]
        avg = dtw_barycenter(members, length=12)
        assert avg.shape == (12,)

    def test_deterministic(self):
        rng = np.random.default_rng(177)
        members = [rng.normal(size=15).cumsum() for _ in range(4)]
        a = dtw_barycenter(members)
        b = dtw_barycenter(members)
        assert np.array_equal(a, b)

    def test_stops_once_the_average_settles(self, monkeypatch):
        rng = np.random.default_rng(179)
        members = [rng.normal(size=12).cumsum() for _ in range(3)]
        monkeypatch.setattr(variants, "_TOLERANCE", np.inf)
        assert np.array_equal(
            dtw_barycenter(members), dtw_barycenter(members, iterations=1)
        )

    def test_single_member(self):
        x = np.arange(8.0)
        assert np.allclose(dtw_barycenter([x]), x)

    def test_validation(self):
        with pytest.raises(ValidationError):
            dtw_barycenter([])
        with pytest.raises(ValidationError):
            dtw_barycenter([np.arange(5.0)], iterations=0)
        with pytest.raises(ValidationError):
            dtw_barycenter([np.arange(5.0)], length=0)
