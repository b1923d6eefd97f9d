"""Integration tests for repro.core.engine (the Fig. 1 facade)."""

import numpy as np
import pytest

from repro.core.config import QueryConfig
from repro.core.engine import OnexEngine
from repro.data.dataset import TimeSeriesDataset
from repro.data.electricity import build_electricity_collection
from repro.data.matters import build_matters_collection
from repro.exceptions import DatasetError, ValidationError


@pytest.fixture(scope="module")
def matters():
    return build_matters_collection(
        indicators=("GrowthRate",), years=14, min_years=8, seed=101
    )


@pytest.fixture(scope="module")
def engine(matters):
    eng = OnexEngine(QueryConfig(mode="fast", refine_groups=2))
    eng.load_dataset(matters, similarity_threshold=0.08, min_length=4, max_length=8)
    return eng


class TestLoading:
    def test_load_reports_stats(self, engine, matters):
        stats = engine.base(matters.name).stats
        assert stats.groups > 0
        assert stats.compaction_ratio > 1.0
        assert engine.dataset_names == [matters.name]

    def test_duplicate_load_rejected(self, engine, matters):
        with pytest.raises(DatasetError, match="already loaded"):
            engine.load_dataset(matters)

    def test_unknown_dataset_rejected(self, engine):
        with pytest.raises(DatasetError, match="not loaded"):
            engine.best_match("nope", [0.1, 0.2, 0.3])

    def test_auto_threshold_and_lengths(self):
        rng = np.random.default_rng(102)
        ds = TimeSeriesDataset.from_arrays(
            [rng.normal(size=16).cumsum() for _ in range(4)], name="auto"
        )
        eng = OnexEngine()
        stats = eng.load_dataset(ds)
        base = eng.base("auto")
        assert base.config.similarity_threshold > 0
        assert base.config.max_length == 16
        assert base.config.min_length == 8
        assert stats.groups > 0

    def test_unload(self):
        rng = np.random.default_rng(103)
        ds = TimeSeriesDataset.from_arrays([rng.normal(size=12)], name="tmp")
        eng = OnexEngine()
        eng.load_dataset(ds, similarity_threshold=0.1)
        eng.unload_dataset("tmp")
        assert eng.dataset_names == []
        with pytest.raises(DatasetError):
            eng.unload_dataset("tmp")


class TestFig2Scenario:
    """The demo walk-through: find the state most similar to MA."""

    def test_ma_best_match_is_another_state(self, engine, matters):
        query = engine.query_from_series(matters.name, "MA/GrowthRate", 0, 6)
        match = engine.best_match(matters.name, query)
        assert match.distance >= 0.0
        # Self-match is excluded only by distance ties; the best distinct
        # match must still be very similar (cluster structure).
        if match.series_name == "MA/GrowthRate" and match.start == 0:
            matches = engine.k_best_matches(matters.name, query, 2)
            match = matches[1]
        assert match.distance <= 0.08

    def test_k_best_spans_states(self, engine, matters):
        query = engine.query_from_series(matters.name, "MA/GrowthRate", 0, 6)
        matches = engine.k_best_matches(matters.name, query, 8)
        states = {m.series_name.split("/")[0] for m in matches}
        assert len(states) >= 2

    def test_brushing_changes_results(self, engine, matters):
        """Brushing a different part of the preview requeries (Fig. 2)."""
        early = engine.query_from_series(matters.name, "MA/GrowthRate", 0, 5)
        late_start = len(matters["MA/GrowthRate"]) - 5
        late = engine.query_from_series(matters.name, "MA/GrowthRate", late_start, 5)
        assert early != late
        m_early = engine.best_match(matters.name, early)
        m_late = engine.best_match(matters.name, late)
        assert (m_early.ref != m_late.ref) or (
            m_early.distance != pytest.approx(m_late.distance)
        )

    def test_query_from_series_validation(self, engine, matters):
        with pytest.raises(ValidationError):
            engine.query_from_series(matters.name, "MA/GrowthRate", 0, 1)
        with pytest.raises(ValidationError):
            engine.query_from_series(matters.name, "MA/GrowthRate", 1000, 5)
        with pytest.raises(DatasetError):
            engine.query_from_series(matters.name, "XX/Nope", 0, 5)


class TestOperations:
    def test_matches_within(self, engine, matters):
        query = engine.query_from_series(matters.name, "CA/GrowthRate", 0, 5)
        matches = engine.matches_within(matters.name, query, 0.05)
        for m in matches:
            assert m.distance <= 0.05 + 1e-12

    def test_threshold_recommendation(self, engine, matters):
        rec = engine.recommend_thresholds(matters.name, 6)
        assert rec.default > 0

    def test_overview_payload(self, engine, matters):
        overview = engine.overview(matters.name, limit=10)
        assert 1 <= len(overview) <= 10
        cards = [entry["cardinality"] for entry in overview]
        assert cards == sorted(cards, reverse=True)
        assert all(len(entry["representative"]) == entry["group"][0] for entry in overview)

    def test_overview_specific_length(self, engine):
        overview = engine.overview("MATTERS-sim", length=4, limit=5)
        assert all(entry["group"][0] == 4 for entry in overview)

    def test_seasonal_on_electricity(self):
        eng = OnexEngine()
        ds = build_electricity_collection(households=2, seed=104)
        eng.load_dataset(
            ds, similarity_threshold=0.06, min_length=4, max_length=6
        )
        series = ds[0]
        length = series.metadata["pattern_length"]
        patterns = eng.seasonal_patterns(
            ds.name, series.name, length, 0.06, step=2
        )
        assert isinstance(patterns, list)

    def test_seasonal_defaults_to_base_threshold(self, engine, matters):
        patterns = engine.seasonal_patterns(matters.name, "MA/GrowthRate", 4)
        assert isinstance(patterns, list)

    def test_similarity_profile(self, engine, matters):
        query = engine.query_from_series(matters.name, "MA/GrowthRate", 0, 5)
        profile = engine.similarity_profile(
            matters.name, query, (0.02, 0.05, 0.1), verify=True
        )
        for point in profile.points:
            assert point.certain <= point.exact <= point.possible

    def test_add_series_then_query(self):
        from repro.data.timeseries import TimeSeries

        rng = np.random.default_rng(105)
        ds = TimeSeriesDataset.from_arrays(
            [rng.normal(size=14).cumsum() for _ in range(3)], name="inc-engine"
        )
        eng = OnexEngine(QueryConfig(mode="exact"))
        eng.load_dataset(ds, similarity_threshold=0.1, min_length=4, max_length=6)
        values = rng.normal(size=10).cumsum()
        summary = eng.add_series("inc-engine", TimeSeries("fresh", values))
        assert summary["windows"] > 0
        match = eng.best_match("inc-engine", values[:5])
        assert match.series_name == "fresh"
        assert match.distance == pytest.approx(0.0, abs=1e-9)
