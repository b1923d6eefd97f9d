"""Unit tests for repro.distances.bounds (the ED->DTW transfer lemma)."""

import numpy as np
import pytest

from repro.distances.bounds import path_multiplicities, transfer_lower, transfer_upper
from repro.distances.dtw import dtw_distance, dtw_path
from repro.exceptions import ValidationError


def transfer_interval(q, r, s, window=None):
    """``(lower, upper)`` on raw ``DTW(q, s)`` from ``dtw_path(q, r)`` alone,
    as the query walk and the sensitivity profile compute them."""
    r, s = np.asarray(r, dtype=np.float64), np.asarray(s, dtype=np.float64)
    rep = dtw_path(q, r, window=window)
    gaps = np.abs(s - r)
    lower = transfer_lower(rep.distance, len(q), s.size, gaps.max())
    upper = transfer_upper(rep.distance, gaps, path_multiplicities(rep.path, r.size, axis=1))
    return float(lower), float(upper)


class TestPathMultiplicities:
    def test_counts_cells(self):
        path = [(0, 0), (1, 0), (2, 1), (3, 1)]
        assert path_multiplicities(path, 2, axis=1).tolist() == [2, 2]
        assert path_multiplicities(path, 4, axis=0).tolist() == [1, 1, 1, 1]

    def test_invalid_axis(self):
        with pytest.raises(ValidationError):
            path_multiplicities([(0, 0)], 1, axis=2)

    def test_out_of_range_index(self):
        with pytest.raises(ValidationError, match="out of range"):
            path_multiplicities([(0, 5)], 2, axis=1)


class TestTransferInterval:
    @pytest.mark.parametrize("window", [None, 0, 1, 2, 3])
    def test_contains_true_dtw_random(self, window):
        """Banded too: r and s share a length, so the optimal banded path
        of either pair is a banded path of the other."""
        rng = np.random.default_rng(51)
        for _ in range(60):
            qlen = int(rng.integers(2, 12))
            slen = int(rng.integers(2, 12))
            q = rng.normal(size=qlen)
            r = rng.normal(size=slen)
            s = r + rng.normal(scale=0.2, size=slen)
            lower, upper = transfer_interval(q, r, s, window)
            true = dtw_distance(q, s, window=window)
            assert lower <= true + 1e-9
            assert true <= upper + 1e-9

    def test_tight_when_member_equals_representative(self):
        rng = np.random.default_rng(52)
        q = rng.normal(size=8)
        r = rng.normal(size=10)
        lower, upper = transfer_interval(q, r, r)
        true = dtw_distance(q, r)
        assert upper == pytest.approx(true)
        assert lower == pytest.approx(true)

    def test_width_grows_with_member_distance(self):
        rng = np.random.default_rng(54)
        q = rng.normal(size=10)
        r = rng.normal(size=10)
        near = transfer_interval(q, r, r + 0.01)
        far = transfer_interval(q, r, r + 1.0)
        assert near[1] - near[0] < far[1] - far[0]


class TestTransferUpper:
    def test_zero_slack_for_identical(self):
        r = np.array([0.0, 1.0, 2.0])
        mult = path_multiplicities(dtw_path(r, r).path, 3, axis=1)
        assert transfer_upper(1.5, np.zeros(3), mult) == 1.5

    def test_manual_example(self):
        # Path touches r[0] twice: slack = 2*|r0-s0| + 1*|r1-s1|.
        mult = path_multiplicities([(0, 0), (1, 0), (2, 1)], 2)
        gaps = np.abs(np.array([1.5, 2.5]) - np.array([1.0, 2.0]))
        assert transfer_upper(0.25, gaps, mult) == pytest.approx(0.25 + 2 * 0.5 + 0.5)

    def test_one_bound_per_member_row(self):
        rng = np.random.default_rng(56)
        gaps = rng.uniform(size=(4, 6))
        mult = rng.integers(1, 4, size=6)
        got = transfer_upper(2.0, gaps, mult)
        assert got.shape == (4,)
        assert np.allclose(got, [2.0 + float(row @ mult) for row in gaps])


class TestTransferLower:
    def test_lower_bounds_all_members(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            q = rng.normal(size=9)
            r = rng.normal(size=7)
            members = [r + rng.normal(scale=0.3, size=7) for _ in range(5)]
            cheb = max(float(np.abs(r - s).max()) for s in members)
            bound = transfer_lower(dtw_distance(q, r), 9, 7, cheb)
            for s in members:
                assert bound <= dtw_distance(q, s) + 1e-9

    def test_member_path_may_outrun_both_lengths(self):
        """The optimal (q, s) path here has 4 cells on 3 x 3, so a slack
        over max(n, m) = 3 cells would bound DTW(q, s) = 10 by 11."""
        q, r, s = [-3.0, 0.0, -2.0], [2.0, -4.0, 3.0], [1.0, -3.0, 2.0]
        assert dtw_path(q, s).path_length == 4
        lower, upper = transfer_interval(q, r, s)
        assert lower <= dtw_distance(q, s) <= upper

    def test_clamped_at_zero(self):
        assert transfer_lower(1.0, 5, 5, 100.0) == 0.0

    def test_paths_are_query_plus_member_length_less_one(self):
        assert transfer_lower(10.0, 4, 3, 1.0) == 10.0 - 6.0

    def test_elementwise_over_groups(self):
        dtw = np.array([5.0, 9.0, 0.5])
        lengths = np.array([3, 5, 4])
        radii = np.array([0.5, 0.25, 1.0])
        got = transfer_lower(dtw, 4, lengths, radii)
        want = [transfer_lower(d, 4, m, c) for d, m, c in zip(dtw, lengths, radii)]
        assert got.tolist() == want
