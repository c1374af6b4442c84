"""Tests for the terminal plotting helper."""

import pytest

from repro.utils.ascii_plot import ascii_plot


class TestAsciiPlot:
    def test_renders_axes_and_legend(self):
        out = ascii_plot(
            {"loss": [(0, 2.0), (10, 1.0), (20, 0.5)]},
            width=30, height=8, x_label="time", y_label="loss",
        )
        assert "time" in out
        assert "loss" in out
        assert "* = loss" in out
        assert "2" in out and "0.5" in out  # y extremes labelled

    def test_multiple_series_distinct_marks(self):
        out = ascii_plot(
            {"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]},
            width=20, height=6,
        )
        assert "* = a" in out
        assert "+ = b" in out

    def test_descending_curve_rasterizes_descending(self):
        out = ascii_plot({"s": [(0, 10.0), (1, 0.0)]}, width=20, height=6)
        lines = [l.split("|", 1)[1] for l in out.splitlines() if "|" in l]
        first_row_col = lines[0].find("*")
        last_row_col = lines[-1].find("*")
        assert first_row_col >= 0 and last_row_col >= 0
        assert first_row_col < last_row_col  # high-y point is left & up

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot({})
        with pytest.raises(ValueError):
            ascii_plot({"x": []})

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot({"x": [(0, 0)]}, width=5, height=2)

    def test_single_point(self):
        out = ascii_plot({"p": [(1.0, 1.0)]}, width=12, height=4)
        assert "*" in out
