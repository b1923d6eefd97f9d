"""Unit tests for repro.viz.payloads."""

import json
import math

import numpy as np
import pytest

from repro.core.query import Match
from repro.core.seasonal import SeasonalPattern
from repro.data.dataset import SubsequenceRef
from repro.data.timeseries import TimeSeries
from repro.exceptions import ValidationError
from repro.viz.payloads import (
    connected_scatter_payload,
    overview_payload,
    query_preview_payload,
    radial_chart_payload,
    seasonal_view_payload,
    similarity_view_payload,
)


def make_match(path, distance=0.1):
    return Match(
        ref=SubsequenceRef(0, 2, 1 + max((j for _, j in path), default=1)),
        series_name="ARK/TechEmployment",
        distance=distance,
        raw_distance=distance * len(path),
        path=tuple(path),
        group=(4, 0),
    )


class TestOverview:
    def test_intensity_scaled_to_max(self):
        payload = overview_payload(
            [
                {"group": (5, 0), "cardinality": 10, "representative": [0.1] * 5},
                {"group": (5, 1), "cardinality": 5, "representative": [0.2] * 5},
            ]
        )
        assert payload["groups"][0]["intensity"] == 1.0
        assert payload["groups"][1]["intensity"] == 0.5

    def test_empty(self):
        assert overview_payload([]) == {"view": "overview", "groups": []}

    def test_json_serialisable(self):
        payload = overview_payload(
            [{"group": (5, 0), "cardinality": 3, "representative": [0.0] * 5}]
        )
        json.dumps(payload)


class TestQueryPreview:
    def test_brush_and_selection(self):
        series = TimeSeries("MA/GrowthRate", [1.0, 2.0, 3.0, 4.0], metadata={"state": "MA"})
        payload = query_preview_payload(series, 1, 2)
        assert payload["brush"] == {"start": 1, "length": 2}
        assert payload["selection"] == [2.0, 3.0]
        assert payload["metadata"]["state"] == "MA"
        json.dumps(payload)

    def test_invalid_brush(self):
        series = TimeSeries("s", [1.0, 2.0])
        with pytest.raises(ValidationError):
            query_preview_payload(series, 1, 5)


class TestSimilarityView:
    def test_connectors_are_path(self):
        path = [(0, 0), (1, 0), (2, 1)]
        match = make_match(path)
        payload = similarity_view_payload([0.1, 0.2, 0.3], [0.1, 0.3], match)
        assert payload["connectors"] == [[0, 0], [1, 0], [2, 1]]
        assert payload["match_series"] == "ARK/TechEmployment"
        json.dumps(payload)

    def test_path_outside_values_rejected(self):
        match = make_match([(0, 0), (1, 5)])
        with pytest.raises(ValidationError, match="warping path"):
            similarity_view_payload([0.1, 0.2], [0.1, 0.2], match)
        with pytest.raises(ValidationError, match="warping path"):
            similarity_view_payload([0.1, 0.2], [0.1, 0.2], make_match([(-1, 0)]))

    def test_match_without_a_path_has_no_connectors(self):
        # What every non-DTW metric and the multivariate scan return.
        payload = similarity_view_payload([0.1, 0.2], [0.1, 0.2], make_match([]))
        assert payload["connectors"] == []
        json.dumps(payload)

    def test_connectors_are_plain_ints(self):
        payload = similarity_view_payload(
            [0.1, 0.2, 0.3], [0.1, 0.3], make_match([(0, 0), (1, 0), (2, 1)])
        )
        assert all(type(v) is int for pair in payload["connectors"] for v in pair)


class TestRadial:
    def test_angles_span_circle(self):
        payload = radial_chart_payload([1.0, 2.0, 3.0], label="MA")
        angles = [p["angle"] for p in payload["points"]]
        assert angles[0] == 0.0
        assert angles[-1] == pytest.approx(2 * math.pi)
        assert payload["label"] == "MA"

    def test_radii_scaled_off_zero(self):
        payload = radial_chart_payload([0.0, 10.0])
        radii = [p["radius"] for p in payload["points"]]
        assert radii[0] == pytest.approx(0.2)
        assert radii[1] == pytest.approx(1.0)

    def test_flat_series(self):
        payload = radial_chart_payload([5.0, 5.0, 5.0])
        assert all(p["radius"] == 0.5 for p in payload["points"])

    def test_single_point(self):
        payload = radial_chart_payload([3.0])
        assert payload["points"][0]["angle"] == 0.0


class TestConnectedScatter:
    def test_points_follow_path(self):
        match = make_match([(0, 0), (1, 1)])
        payload = connected_scatter_payload([1.0, 2.0], [1.0, 2.0], match)
        assert payload["points"] == [[1.0, 1.0], [2.0, 2.0]]
        assert payload["diagonal_deviation"] == 0.0

    def test_deviation_measures_mismatch(self):
        match = make_match([(0, 0), (1, 1)])
        payload = connected_scatter_payload([1.0, 2.0], [2.0, 4.0], match)
        assert payload["diagonal_deviation"] == pytest.approx(1.5)

    def test_match_without_a_path_is_rejected(self, recwarn):
        # Used to return "diagonal_deviation": NaN (invalid JSON) and warn.
        with pytest.raises(ValidationError, match="no warping path"):
            connected_scatter_payload([1.0, 2.0], [1.0, 2.0], make_match([]))
        assert not recwarn.list

    def test_path_outside_values_rejected(self):
        with pytest.raises(ValidationError, match="does not fit"):
            connected_scatter_payload([1.0, 2.0], [1.0, 2.0], make_match([(0, 0), (1, 2)]))


class TestSeasonalView:
    def test_segments_alternate_colors(self):
        series = TimeSeries("household-0", np.arange(50.0))
        pattern = SeasonalPattern(
            starts=(0, 20, 40),
            length=10,
            centroid=np.zeros(10),
            max_pairwise_dtw=0.02,
        )
        payload = seasonal_view_payload(series, [pattern])
        slots = [s["color_slot"] for s in payload["patterns"][0]["segments"]]
        assert slots == [0, 1, 0]
        json.dumps(payload)

    def test_empty_patterns(self):
        series = TimeSeries("s", [1.0, 2.0])
        payload = seasonal_view_payload(series, [])
        assert payload["patterns"] == []
