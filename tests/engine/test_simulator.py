"""Unit tests for one trial: the one-seed fleet run on the dense backend."""

from random import Random

import pytest

from repro.engine.fleet import FleetSimulator
from repro.engine.rules import FeedbackRule, SweepRule
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import (
    complete_graph,
    empty_graph,
    grid_graph,
    star_graph,
)
from repro.graphs.validation import verify_mis

from .conftest import ENGINE_IDS, engine_run


def one_trial(graph, rule_factory, seed, **kwargs):
    """One seeded trial on the dense backend, as an ``EngineRun``."""
    return engine_run("fleet-dense", graph, rule_factory, seed, **kwargs)


class TestBasics:
    def test_empty_graph(self):
        run = one_trial(empty_graph(0), FeedbackRule, seed=1)
        assert run.rounds == 0
        assert run.mis == set()

    def test_isolated_vertices_join_first_possible(self):
        run = one_trial(empty_graph(6), FeedbackRule, seed=2, validate=True)
        assert run.mis == set(range(6))

    def test_complete_graph_single_winner(self):
        run = one_trial(complete_graph(12), FeedbackRule, seed=3,
                        validate=True)
        assert len(run.mis) == 1

    def test_validate_flag(self, random50):
        run = one_trial(random50, FeedbackRule, seed=4, validate=True)
        verify_mis(random50, run.mis)

    def test_deterministic_given_seed(self, random50):
        a = one_trial(random50, FeedbackRule, seed=5)
        b = one_trial(random50, FeedbackRule, seed=5)
        assert a.mis == b.mis
        assert a.rounds == b.rounds
        assert (a.beeps_by_node == b.beeps_by_node).all()

    def test_different_seeds_differ(self, random50):
        a = one_trial(random50, FeedbackRule, seed=6)
        b = one_trial(random50, FeedbackRule, seed=7)
        assert a.mis != b.mis or a.rounds != b.rounds

    @pytest.mark.parametrize("engine_id", ENGINE_IDS)
    def test_max_rounds_guard(self, engine_id):
        # A K_3 usually needs more than one round.
        with pytest.raises(RuntimeError, match="exceeded"):
            for seed in range(20):
                engine_run(engine_id, complete_graph(3), SweepRule, seed,
                           max_rounds=1)

    @pytest.mark.parametrize("backend", ("dense", "sparse", "bitboard"))
    def test_max_rounds_validation(self, backend):
        with pytest.raises(ValueError, match="max_rounds"):
            FleetSimulator(empty_graph(1), max_rounds=0, backend=backend)

    def test_simulator_reusable(self, random50):
        simulator = FleetSimulator(random50)
        for seed in range(5):
            run = simulator.run_fleet(
                FeedbackRule(), [seed], validate=True
            ).trial_run(0)
            assert run.rounds >= 1


class TestMetrics:
    def test_beep_counts_plausible(self, random50):
        run = one_trial(random50, FeedbackRule, seed=8)
        assert run.beeps_by_node.shape == (50,)
        assert (run.beeps_by_node >= 0).all()
        assert run.mean_beeps_per_node == pytest.approx(
            float(run.beeps_by_node.sum()) / 50
        )

    def test_mean_beeps_empty(self):
        run = one_trial(empty_graph(0), FeedbackRule, seed=1)
        assert run.mean_beeps_per_node == 0.0

    def test_rule_name_recorded(self, random50):
        assert one_trial(random50, FeedbackRule, 1).rule_name == "feedback"
        assert one_trial(random50, SweepRule, 1).rule_name == "afek-sweep"


class TestLargeGraphOverflowRegression:
    @pytest.mark.parametrize("engine_id", ENGINE_IDS)
    def test_many_beeping_neighbors(self, engine_id):
        """More than 255 beeping neighbours must still register as heard
        (a uint8 count would overflow and could wrap to 0)."""
        run = engine_run(engine_id, star_graph(300), SweepRule, 11,
                         validate=True)
        # Round 0 of the sweep has p=1: all 301 vertices beep, everyone
        # hears, nobody joins.  If overflow dropped the observation the hub
        # would wrongly join alongside a leaf and validation would fail.
        assert run.rounds >= 2


@pytest.mark.parametrize("rule_factory", [FeedbackRule, SweepRule])
@pytest.mark.parametrize("seed", range(4))
def test_output_always_mis(rule_factory, seed):
    graph = gnp_random_graph(40, 0.3, Random(seed))
    one_trial(graph, rule_factory, seed=seed + 50, validate=True)


def test_grid_graph_feedback():
    run = one_trial(grid_graph(9, 9), FeedbackRule, seed=13, validate=True)
    assert run.rounds >= 1
