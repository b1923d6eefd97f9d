"""Unit tests for repro.distances.metrics."""

import numpy as np
import pytest

from repro.distances import metrics
from repro.distances.metrics import as_sequence, normalized_euclidean
from repro.distances.registry import get_metric
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


def raw(name, x, y):
    return get_metric(name).pair(np.asarray(x, float), np.asarray(y, float), None)[0]


class TestEuclideanFamily:
    """The registry's Lp kernels on known values; the metric axioms over
    random draws are tests/test_metric_registry.py's."""

    def test_l1_known_value(self):
        assert raw("cityblock", [0, 0, 0], [1, 2, 3]) == 6.0

    def test_l2_known_value(self):
        assert raw("euclidean", [0, 0], [3, 4]) == pytest.approx(5.0)

    def test_chebyshev_known_value(self):
        assert raw("chebyshev", [0, 0, 0], [1, -5, 3]) == 5.0

    @pytest.mark.parametrize("name", ["cityblock", "euclidean", "chebyshev"])
    def test_identical_inputs_are_zero(self, name):
        x = [1.5, -2.0, 7.25]
        assert raw(name, x, x) == 0.0

    @pytest.mark.parametrize("name", ["cityblock", "euclidean", "chebyshev"])
    def test_symmetry(self, name):
        x, y = [1, 2, 3], [4, 0, -1]
        assert raw(name, x, y) == raw(name, y, x)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="equal lengths"):
            raw("cityblock", [1, 2], [1, 2, 3])
        with pytest.raises(ValidationError, match="equal lengths"):
            normalized_euclidean([1, 2], [1, 2, 3])

    def test_normalized_l1_is_mean(self):
        assert normalized_euclidean([0, 0, 0, 0], [1, 1, 1, 1]) == 1.0
        assert normalized_euclidean([0, 0], [1, 3]) == 2.0

    def test_normalized_l2_is_rms(self, monkeypatch):
        monkeypatch.setattr(metrics, "_ORDER", 2)
        assert normalized_euclidean([0, 0], [3, 3]) == pytest.approx(3.0)
        assert normalized_euclidean([0, 0], [3, 4]) == pytest.approx(12.5**0.5)

    def test_normalized_invalid_order(self, monkeypatch):
        monkeypatch.setattr(metrics, "_ORDER", 3)
        with pytest.raises(ValidationError, match="order"):
            normalized_euclidean([1], [2])

    def test_normalized_is_the_cityblock_norm(self):
        x, y = [0, 0, 0], [1, 2, 3]
        assert normalized_euclidean(x, y) == get_metric("cityblock").pair(
            np.asarray(x, float), np.asarray(y, float), None
        )[1]
        assert raw("euclidean", x, y) == pytest.approx(np.sqrt(14))
