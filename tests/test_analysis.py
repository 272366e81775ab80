"""Tests for report rendering."""

import pytest

from repro.analysis.report import format_table, ratio, series_text


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["name", "value"], [["a", 1], ["longer", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "longer" in lines[3]

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_float_formatting(self):
        text = format_table(["x"], [[1.23456789]])
        assert "1.235" in text

    def test_ratio(self):
        assert ratio(10, 5) == 2.0
        assert ratio(10, 0) == 0.0

    def test_series_text(self):
        text = series_text("fp", [1, 2], [10.0, 20.0], unit="inst")
        assert "series: fp" in text
        assert "1: 10 inst" in text

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            series_text("x", [1], [1, 2])
