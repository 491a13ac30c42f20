"""Tests for the Theorem 1 experiment driver."""

import pytest

from repro.experiments.lower_bound import theorem1_experiment


class TestTheorem1Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        return theorem1_experiment(sides=(3, 5, 7), trials=10, master_seed=77)

    def test_two_series(self, result):
        assert set(result.series_names()) == {"afek-sweep", "feedback"}

    def test_x_is_vertex_count(self, result):
        # side s with copies=s has s^2 (s+1)/2 vertices.
        xs = result.xs("feedback")
        assert xs == [18.0, 75.0, 196.0]

    def test_side_recorded_in_extra(self, result):
        sides = [p.extra["side"] for p in result.series("feedback")]
        assert sides == [3.0, 5.0, 7.0]

    def test_sweep_needs_more_rounds(self, result):
        """The separation the paper proves: global schedules lose on the
        clique family."""
        for n in result.xs("feedback"):
            sweep = next(p for p in result.series("afek-sweep") if p.x == n)
            feedback = next(p for p in result.series("feedback") if p.x == n)
            assert sweep.mean > feedback.mean

    def test_gap_widens_with_size(self, result):
        ratios = [
            s.mean / f.mean
            for s, f in zip(
                result.series("afek-sweep"), result.series("feedback")
            )
        ]
        assert ratios[-1] > ratios[0] * 0.8  # non-shrinking (noise margin)
