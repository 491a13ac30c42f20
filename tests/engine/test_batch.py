"""Unit tests for the batch driver."""

import pytest

from repro.engine.batch import run_batch
from repro.engine.rules import FeedbackRule, SweepRule
from repro.graphs.structured import complete_graph, empty_graph


class TestRunBatch:
    def test_shapes_and_stats(self, random50):
        batch = run_batch(random50, FeedbackRule, trials=10, master_seed=1)
        assert batch.trials == 10
        assert batch.rounds.shape == (10,)
        assert batch.mean_beeps.shape == (10,)
        assert batch.rule_name == "feedback"
        assert batch.num_vertices == 50
        assert batch.mean_rounds > 0
        assert batch.std_rounds >= 0

    def test_reproducible(self, random50):
        a = run_batch(random50, FeedbackRule, 5, master_seed=2)
        b = run_batch(random50, FeedbackRule, 5, master_seed=2)
        assert (a.rounds == b.rounds).all()
        assert (a.mean_beeps == b.mean_beeps).all()

    def test_master_seed_changes_results(self, random50):
        a = run_batch(random50, FeedbackRule, 5, master_seed=3)
        b = run_batch(random50, FeedbackRule, 5, master_seed=4)
        assert (a.rounds != b.rounds).any()

    def test_single_trial_std_zero(self, random50):
        batch = run_batch(random50, FeedbackRule, 1, master_seed=6)
        assert batch.std_rounds == 0.0

    def test_trials_validation(self, random50):
        with pytest.raises(ValueError):
            run_batch(random50, FeedbackRule, 0, master_seed=7)

    def test_validate_flag(self):
        batch = run_batch(
            complete_graph(8), SweepRule, 5, master_seed=8
        )
        assert batch.mean_rounds >= 1

    def test_empty_graph(self):
        batch = run_batch(empty_graph(0), FeedbackRule, 3, master_seed=9)
        assert batch.mean_rounds == 0.0
        assert batch.mean_beeps_per_node == 0.0
