"""Unit tests for simulation metrics."""

from repro.beeping.metrics import RoundRecord, SimulationMetrics


class TestRoundRecord:
    def test_became_inactive(self):
        record = RoundRecord(
            round_index=0,
            active_before=10,
            beeps=4,
            joins=2,
            retirements=5,
        )
        assert record.became_inactive == 7

    def test_crash_default(self):
        record = RoundRecord(0, 5, 1, 0, 0)
        assert record.crashes == 0


class TestSimulationMetrics:
    def test_initial_state(self):
        metrics = SimulationMetrics(4)
        assert metrics.beeps_by_node == [0, 0, 0, 0]
        assert metrics.num_rounds == 0
        assert metrics.total_beeps == 0
        assert metrics.mean_beeps_per_node == 0.0

    def test_record_beeps(self):
        metrics = SimulationMetrics(3)
        metrics.record_beeps({0, 2})
        metrics.record_beeps({2})
        assert metrics.beeps_by_node == [1, 0, 2]
        assert metrics.total_beeps == 3
        assert metrics.mean_beeps_per_node == 1.0

    def test_record_rounds(self):
        metrics = SimulationMetrics(2)
        metrics.record_round(RoundRecord(0, 2, 1, 0, 0))
        metrics.record_round(RoundRecord(1, 2, 1, 1, 1))
        assert metrics.num_rounds == 2

    def test_empty_graph_mean(self):
        metrics = SimulationMetrics(0)
        assert metrics.mean_beeps_per_node == 0.0
