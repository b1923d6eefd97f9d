"""Unit tests for repro.distances.metrics."""

import numpy as np
import pytest

from repro.distances.metrics import (
    as_sequence,
    chebyshev,
    euclidean,
    euclidean_l1,
    euclidean_l2,
    normalized_euclidean,
)
from repro.exceptions import ValidationError


class TestAsSequence:
    def test_converts_lists(self):
        out = as_sequence([1, 2, 3])
        assert out.dtype == np.float64
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="non-empty"):
            as_sequence([])

    def test_rejects_2d(self):
        with pytest.raises(ValidationError, match="1-D"):
            as_sequence([[1, 2], [3, 4]])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="NaN"):
            as_sequence([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValidationError, match="NaN or infinite"):
            as_sequence([1.0, float("inf")])

    def test_name_appears_in_error(self):
        with pytest.raises(ValidationError, match="query"):
            as_sequence([], name="query")


class TestEuclideanFamily:
    def test_l1_known_value(self):
        assert euclidean_l1([0, 0, 0], [1, 2, 3]) == 6.0

    def test_l2_known_value(self):
        assert euclidean_l2([0, 0], [3, 4]) == 5.0

    def test_chebyshev_known_value(self):
        assert chebyshev([0, 0, 0], [1, -5, 3]) == 5.0

    def test_identical_inputs_are_zero(self):
        x = [1.5, -2.0, 7.25]
        assert euclidean_l1(x, x) == 0.0
        assert euclidean_l2(x, x) == 0.0
        assert chebyshev(x, x) == 0.0

    def test_symmetry(self):
        x, y = [1, 2, 3], [4, 0, -1]
        assert euclidean_l1(x, y) == euclidean_l1(y, x)
        assert euclidean_l2(x, y) == euclidean_l2(y, x)
        assert chebyshev(x, y) == chebyshev(y, x)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="equal lengths"):
            euclidean_l1([1, 2], [1, 2, 3])

    def test_normalized_l1_is_mean(self):
        assert normalized_euclidean([0, 0, 0, 0], [1, 1, 1, 1]) == 1.0
        assert normalized_euclidean([0, 0], [1, 3]) == 2.0

    def test_normalized_l2_is_rms(self):
        assert normalized_euclidean([0, 0], [3, 3], order=2) == pytest.approx(3.0)

    def test_normalized_invalid_order(self):
        with pytest.raises(ValidationError, match="order"):
            normalized_euclidean([1], [2], order=3)

    def test_euclidean_dispatch(self):
        x, y = [0, 0, 0], [1, 2, 3]
        assert euclidean(x, y, order=1, normalized=False) == 6.0
        assert euclidean(x, y, order=1, normalized=True) == 2.0
        assert euclidean(x, y, order=2, normalized=False) == pytest.approx(
            np.sqrt(14)
        )

    def test_euclidean_invalid_order(self):
        with pytest.raises(ValidationError):
            euclidean([1], [2], order=0, normalized=False)
