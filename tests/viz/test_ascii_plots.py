"""Tests for the ASCII plotter."""

import pytest

from repro.experiments.records import ExperimentResult, SeriesPoint
from repro.viz.ascii_plots import AsciiPlot, plot_experiment


class TestAsciiPlot:
    def test_renders_axes_and_legend(self):
        plot = AsciiPlot(x_label="n", y_label="rounds")
        plot.add_series("demo", [1, 2, 3], [10, 20, 30])
        text = plot.render()
        assert "legend: o=demo" in text
        assert "rounds" in text
        assert "n" in text
        assert "30" in text and "10" in text

    def test_multiple_series_distinct_glyphs(self):
        plot = AsciiPlot()
        plot.add_series("a", [0, 1], [0, 1])
        plot.add_series("b", [0, 1], [1, 0])
        text = plot.render()
        assert "o=a" in text
        assert "x=b" in text

    def test_empty_plot_rejected(self):
        with pytest.raises(ValueError, match="nothing to plot"):
            AsciiPlot().render()

    def test_mismatched_lengths_rejected(self):
        plot = AsciiPlot()
        with pytest.raises(ValueError):
            plot.add_series("a", [1, 2], [1])

    def test_constant_series_does_not_crash(self):
        plot = AsciiPlot()
        plot.add_series("flat", [1, 2, 3], [5, 5, 5])
        assert "flat" in plot.render()

    def test_single_point(self):
        plot = AsciiPlot()
        plot.add_series("dot", [1], [1])
        assert "o" in plot.render()


class TestConvenienceWrappers:
    def test_plot_experiment(self):
        result = ExperimentResult(
            experiment="demo",
            points=[
                SeriesPoint("a", 1.0, 2.0, 0.0, 1),
                SeriesPoint("a", 2.0, 4.0, 0.0, 1),
                SeriesPoint("b", 1.0, 1.0, 0.0, 1),
                SeriesPoint("b", 2.0, 2.0, 0.0, 1),
            ],
            master_seed=0,
        )
        text = plot_experiment(result)
        assert "o=a" in text
        assert "x=b" in text
