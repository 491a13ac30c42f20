"""Tests for ASCII table formatting."""

import pytest

from repro.experiments.records import ExperimentResult, SeriesPoint
from repro.experiments.tables import format_experiment, format_table


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = table.split("\n")
        assert lines[0] == "a   | bbb"
        assert lines[1] == "----+----"
        assert lines[2] == "1   | 2  "
        assert lines[3] == "333 | 4  "

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            format_table(["a", "b"], [[1]])

    def test_no_rows(self):
        table = format_table(["x"], [])
        assert table.split("\n") == ["x", "-"]


class TestFormatExperiment:
    def test_contains_all_points(self):
        result = ExperimentResult(
            experiment="demo",
            points=[
                SeriesPoint("s1", 10.0, 1.234, 0.5, 3),
                SeriesPoint("s2", 20.0, 2.0, 0.1, 3),
            ],
            master_seed=5,
        )
        text = format_experiment(result)
        assert "experiment: demo" in text
        assert "s1" in text and "s2" in text
        assert "1.23" in text

    def test_extra_columns_default_is_unchanged(self):
        result = ExperimentResult(
            experiment="e",
            points=[
                SeriesPoint("s", 30.0, 7.5, 1.0, 3, {"ratio": 0.875}),
                SeriesPoint("t", 30.0, 8.0, 0.0, 3),
            ],
            master_seed=1,
        )
        assert format_experiment(result).split("\n") == [
            "experiment: e (seed=1)",
            "series | x  | mean | std  | trials",
            "-------+----+------+------+-------",
            "s      | 30 | 7.50 | 1.00 | 3     ",
            "t      | 30 | 8.00 | 0.00 | 3     ",
        ]
        lines = format_experiment(result, extra_columns=("ratio",)).split(
            "\n"
        )
        assert lines[1] == "series | x  | mean | std  | trials | ratio"
        assert lines[3] == "s      | 30 | 7.50 | 1.00 | 3      | 0.88 "
        # Blank where a point lacks the key, as in results_to_csv.
        assert lines[4] == "t      | 30 | 8.00 | 0.00 | 3      |      "
