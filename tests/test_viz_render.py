"""Unit tests for the ASCII and SVG renderers."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.viz.ascii_chart import multi_line_chart, sparkline
from repro.viz.svg import (
    svg_connected_scatter,
    svg_radial_chart,
    svg_seasonal_view,
    svg_similarity_view,
)


class TestSparkline:
    def test_length_preserved(self):
        assert len(sparkline([1.0, 2.0, 3.0])) == 3

    def test_monotone_series_monotone_blocks(self):
        out = sparkline(np.arange(8.0))
        assert out == "▁▂▃▄▅▆▇█"

    def test_flat_series(self):
        assert sparkline([2.0, 2.0]) == "▄▄"


class TestLineCharts:
    def test_multi_line_shares_scale(self):
        a = np.zeros(10)
        b = np.full(10, 10.0)
        out = multi_line_chart(a, b, width=10, height=5)
        lines = out.split("\n")
        assert set(lines[0]) == {"o"}  # high series on top row
        assert set(lines[-1]) == {"*"}  # low series on bottom row

    def test_overlap_marker(self):
        a = np.arange(10.0)
        out = multi_line_chart(a, a, width=10, height=5)
        assert "@" in out
        assert "*" not in out

    def test_validation(self):
        with pytest.raises(ValidationError):
            multi_line_chart([1.0, 2.0], [1.0, 2.0], width=1)
        with pytest.raises(ValidationError):
            multi_line_chart([1.0], [1.0], height=1)


class TestSvg:
    def test_similarity_view_connectors(self, tmp_path):
        path = svg_similarity_view(
            [0.0, 1.0, 2.0],
            [0.0, 2.0],
            [(0, 0), (1, 0), (2, 1)],
            tmp_path / "sim.svg",
        )
        text = path.read_text()
        assert text.count("<line") == 3
        assert "stroke-dasharray" in text

    def test_similarity_view_bad_connector(self, tmp_path):
        with pytest.raises(ValidationError):
            svg_similarity_view([0.0, 1.0], [0.0], [(0, 5)], tmp_path / "x.svg")

    def test_radial_chart(self, tmp_path):
        path = svg_radial_chart(np.sin(np.arange(24.0)), tmp_path / "rad.svg")
        text = path.read_text()
        assert "<circle" in text
        assert "polyline" in text

    def test_connected_scatter(self, tmp_path):
        path = svg_connected_scatter(
            [(0.1, 0.1), (0.2, 0.25), (0.3, 0.3)], tmp_path / "sc.svg"
        )
        text = path.read_text()
        assert text.count("<circle") == 3

    def test_connected_scatter_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            svg_connected_scatter([], tmp_path / "bad.svg")
        with pytest.raises(ValidationError):
            svg_connected_scatter([(1.0, 2.0, 3.0)], tmp_path / "bad.svg")

    def test_seasonal_view(self, tmp_path):
        values = np.sin(np.arange(100.0) / 5.0)
        path = svg_seasonal_view(
            values, [(0, 20), (50, 70)], tmp_path / "sea.svg", title="patterns"
        )
        text = path.read_text()
        assert text.count("<rect") == 3  # background + 2 segments

    def test_seasonal_view_bad_segment(self, tmp_path):
        with pytest.raises(ValidationError):
            svg_seasonal_view(np.arange(10.0), [(5, 50)], tmp_path / "bad.svg")
