"""Tests for the figure drivers (scaled down for test speed)."""

import pytest

from repro.experiments.figures import (
    figure1_example,
    figure3_series,
    figure5_series,
    grid_beeps_series,
)
from repro.graphs.validation import verify_mis


class TestFigure1:
    def test_returns_verified_mis_on_20_nodes(self):
        graph, mis = figure1_example()
        assert graph.num_vertices == 20
        verify_mis(graph, mis)

    def test_deterministic(self):
        a = figure1_example()
        b = figure1_example()
        assert a[0] == b[0]
        assert a[1] == b[1]


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self):
        return figure3_series(
            sizes=(30, 60, 120),
            trials=10,
            graphs_per_size=2,
            master_seed=33,
        )

    def test_series_present(self, result):
        names = result.series_names()
        assert "feedback" in names
        assert "afek-sweep" in names
        assert "log2_squared" in names
        assert "2.5_log2" in names

    def test_point_counts(self, result):
        assert len(result.series("feedback")) == 3
        assert len(result.series("afek-sweep")) == 3

    def test_sweep_slower_than_feedback(self, result):
        for n in (30, 60, 120):
            sweep = next(
                p for p in result.series("afek-sweep") if p.x == n
            )
            feedback = next(
                p for p in result.series("feedback") if p.x == n
            )
            assert sweep.mean > feedback.mean

    def test_trials_recorded(self, result):
        for point in result.series("feedback"):
            assert point.trials == 10

    def test_reference_curves_match_theory(self, result):
        import math

        point = next(p for p in result.series("log2_squared") if p.x == 120)
        assert point.mean == pytest.approx(math.log2(120) ** 2)

    def test_parameters_recorded(self, result):
        assert result.parameters["edge_probability"] == 0.5


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        return figure5_series(
            sizes=(20, 60),
            trials=20,
            graphs_per_size=2,
            master_seed=55,
        )

    def test_feedback_beeps_stay_low(self, result):
        for point in result.series("feedback"):
            assert point.mean < 3.0

    def test_sweep_beeps_grow(self, result):
        sweep = result.means("afek-sweep")
        assert sweep[-1] > sweep[0]

    def test_feedback_flat_relative_to_sweep(self, result):
        feedback = result.means("feedback")
        sweep = result.means("afek-sweep")
        feedback_growth = feedback[-1] - feedback[0]
        sweep_growth = sweep[-1] - sweep[0]
        assert sweep_growth > feedback_growth


class TestGridBeeps:
    def test_flat_and_close_to_paper_value(self):
        result = grid_beeps_series(
            side_lengths=(4, 8), trials=30, master_seed=66
        )
        feedback = result.series("feedback")
        assert len(feedback) == 2
        for point in feedback:
            # Paper: around 1.1 beeps per node on rectangular grids.
            assert 0.6 < point.mean < 2.0


class TestSweepExecution:
    """Figures run through the sweep orchestrator: jobs and cache are pure
    execution knobs and must never change the numbers."""

    ARGS = dict(sizes=(20, 30), trials=6, graphs_per_size=2, master_seed=12)

    def test_jobs_and_cache_do_not_change_results(self, tmp_path):
        plain = figure3_series(**self.ARGS)
        sharded = figure3_series(**self.ARGS, jobs=2, cache_dir=tmp_path)
        assert sharded.points == plain.points

    def test_warm_cache_reproduces_the_figure(self, tmp_path):
        cold = figure3_series(**self.ARGS, cache_dir=tmp_path)
        warm = figure3_series(**self.ARGS, cache_dir=tmp_path)
        assert warm.points == cold.points
