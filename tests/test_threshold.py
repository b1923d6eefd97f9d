"""Unit tests for repro.core.threshold."""

import numpy as np
import pytest

from repro.core.threshold import recommend_thresholds
from repro.data.dataset import TimeSeriesDataset
from repro.data.matters import build_matters_collection
from repro.data.timeseries import TimeSeries
from repro.exceptions import DatasetError, ValidationError
from repro.obs.metrics import REGISTRY


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(91)
    return TimeSeriesDataset.from_arrays(
        [rng.normal(size=30).cumsum() for _ in range(6)], name="walks"
    )


class TestRecommendation:
    def test_thresholds_sorted_with_quantiles(self, dataset):
        rec = recommend_thresholds(dataset, 8, seed=1)
        assert rec.quantiles == (0.01, 0.05, 0.10, 0.25)
        assert list(rec.thresholds) == sorted(rec.thresholds)
        assert all(t >= 0 for t in rec.thresholds)

    def test_default_is_five_percent(self, dataset):
        rec = recommend_thresholds(dataset, 8, seed=1)
        assert rec.default == rec.thresholds[1]

    def test_default_falls_back_to_tightest(self, dataset):
        rec = recommend_thresholds(dataset, 8, quantiles=(0.2, 0.4), seed=1)
        assert rec.default == rec.thresholds[0]

    def test_deterministic_given_seed(self, dataset):
        a = recommend_thresholds(dataset, 8, seed=5)
        b = recommend_thresholds(dataset, 8, seed=5)
        assert a.thresholds == b.thresholds

    def test_quantiles_bracket_distribution(self, dataset):
        """Thresholds should sit below the mean sampled distance."""
        rec = recommend_thresholds(dataset, 8, seed=2)
        assert rec.thresholds[0] < rec.mean_distance
        assert rec.std_distance > 0

    def test_sample_cap_respected(self, dataset):
        rec = recommend_thresholds(dataset, 29, samples=10_000, seed=3)
        # Only 6 series contribute 2 windows each of length 29 -> 12
        # windows -> 66 distinct pairs.
        assert rec.samples <= 66

    def test_as_dict_shape(self, dataset):
        payload = recommend_thresholds(dataset, 8, seed=4).as_dict()
        assert payload["length"] == 8
        assert "5%" in payload["suggestions"]
        assert payload["default"] == payload["suggestions"]["5%"]

    def test_one_call_is_one_latency_observation(self, dataset):
        """The recommender reports to ``onex_analytics_ms`` as the other
        two analytics operations do, not only to the counter."""


        def seen():
            return (
                REGISTRY.get("onex_analytics_ms").snapshot(op="thresholds")["count"],
                REGISTRY.get("onex_analytics_total").value(op="thresholds"),
            )

        observed, counted = seen()
        recommend_thresholds(dataset, 8, seed=4)
        assert seen() == (observed + 1, counted + 1)

    def test_scale_invariance_through_normalization(self):
        """Same shapes at different scales give the same recommendation."""
        rng = np.random.default_rng(92)
        shapes = [rng.normal(size=20).cumsum() for _ in range(4)]
        small = TimeSeriesDataset.from_arrays(shapes, name="small")
        big = TimeSeriesDataset.from_arrays([s * 1e6 for s in shapes], name="big")
        rec_small = recommend_thresholds(small, 6, seed=7)
        rec_big = recommend_thresholds(big, 6, seed=7)
        for a, b in zip(rec_small.thresholds, rec_big.thresholds):
            assert a == pytest.approx(b, rel=1e-9)

    def test_matters_indicators_need_different_raw_thresholds(self):
        """The paper's motivation: growth rates vs unemployment scales."""
        ds = build_matters_collection(years=12, min_years=8, seed=93)
        growth = TimeSeriesDataset(
            [s for s in ds if s.metadata["indicator"] == "GrowthRate"],
            name="growth",
        )
        unemployment = TimeSeriesDataset(
            [s for s in ds if s.metadata["indicator"] == "Unemployment"],
            name="unemp",
        )
        raw_growth = recommend_thresholds(growth, 6, normalize=False, seed=9)
        raw_unemp = recommend_thresholds(unemployment, 6, normalize=False, seed=9)
        assert raw_unemp.default > 100 * raw_growth.default


class TestValidation:
    def test_bad_length(self, dataset):
        with pytest.raises(ValidationError):
            recommend_thresholds(dataset, 1)

    def test_bad_samples(self, dataset):
        with pytest.raises(ValidationError):
            recommend_thresholds(dataset, 8, samples=5)

    def test_bad_quantiles(self, dataset):
        with pytest.raises(ValidationError):
            recommend_thresholds(dataset, 8, quantiles=(0.0, 0.5))
        with pytest.raises(ValidationError):
            recommend_thresholds(dataset, 8, quantiles=())

    def test_too_few_subsequences(self):
        tiny = TimeSeriesDataset([TimeSeries("one", [1.0, 2.0, 3.0])])
        with pytest.raises(DatasetError, match=">= 2"):
            recommend_thresholds(tiny, 3)
