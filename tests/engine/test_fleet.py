"""Unit tests for the trial-parallel fleet engine."""

from __future__ import annotations

from random import Random

import numpy as np
import pytest

from repro.beeping.rng import derive_seed, derive_seed_block
from repro.engine.batch import run_batch
from repro.engine.fleet import DENSE_VERTEX_LIMIT, FleetSimulator
from repro.engine.rules import FeedbackRule, ProbabilityRule
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import empty_graph, grid_graph
from repro.graphs.validation import verify_mis


class _StatefulRule(ProbabilityRule):
    """A rule that keeps per-run mutable state: not trial-parallel."""

    trial_parallel = False

    def __init__(self):
        self._halvings = 0

    @property
    def name(self):
        return "stateful-test-rule"

    def initial(self, num_vertices):
        return np.full(num_vertices, 0.5)

    def update(self, probabilities, heard, active, round_index):
        self._halvings += 1
        return np.where(heard, probabilities / 2, probabilities)


class TestConstruction:
    def test_backend_auto_resolution(self):
        small = FleetSimulator(grid_graph(3, 3))
        assert small.backend == "dense"
        large = FleetSimulator(empty_graph(DENSE_VERTEX_LIMIT + 1))
        assert large.backend == "sparse"

    def test_backend_override(self):
        assert FleetSimulator(grid_graph(3, 3), backend="sparse").backend == "sparse"

    def test_rejects_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            FleetSimulator(grid_graph(3, 3), backend="csr")

    def test_rejects_bad_max_rounds(self):
        with pytest.raises(ValueError, match="max_rounds"):
            FleetSimulator(grid_graph(3, 3), max_rounds=0)


class TestRunFleet:
    def test_rejects_empty_seed_list(self):
        with pytest.raises(ValueError, match="seed"):
            FleetSimulator(grid_graph(3, 3)).run_fleet(FeedbackRule(), [])

    def test_rejects_stateful_rule(self):
        with pytest.raises(ValueError, match="trial-parallel"):
            FleetSimulator(grid_graph(3, 3)).run_fleet(_StatefulRule(), [1, 2])

    def test_max_rounds_enforced(self):
        with pytest.raises(RuntimeError, match="exceeded"):
            FleetSimulator(grid_graph(4, 4), max_rounds=1).run_fleet(
                FeedbackRule(), [0, 1, 2]
            )

    def test_empty_graph_finishes_in_zero_rounds(self):
        run = FleetSimulator(empty_graph(0)).run_fleet(FeedbackRule(), [5, 6])
        assert run.num_vertices == 0
        assert list(run.rounds) == [0, 0]
        assert run.mean_beeps.tolist() == [0.0, 0.0]

    def test_isolated_vertices_all_join(self):
        run = FleetSimulator(empty_graph(6)).run_fleet(
            FeedbackRule(), derive_seed_block(11, 0, count=4)
        )
        assert run.membership.all()
        assert (run.rounds >= 1).all()

    def test_per_trial_rounds_match_per_trial_engine(self):
        """The alive-mask must freeze each trial at its own round count."""
        graph = gnp_random_graph(25, 0.3, Random(9))
        seeds = [derive_seed(31, 0, t) for t in range(8)]
        simulator = FleetSimulator(graph)
        fleet = simulator.run_fleet(FeedbackRule(), seeds)
        for t, seed in enumerate(seeds):
            reference = simulator.run_fleet(
                FeedbackRule(), [seed]
            ).trial_run(0)
            assert int(fleet.rounds[t]) == reference.rounds
            assert fleet.mis_set(t) == reference.mis
            assert np.array_equal(fleet.beeps_by_node[t], reference.beeps_by_node)
        # trials genuinely differ in length, so the mask is exercised
        assert len(set(fleet.rounds.tolist())) > 1

    def test_validate_flag_verifies_every_trial(self):
        graph = gnp_random_graph(20, 0.4, Random(12))
        run = FleetSimulator(graph).run_fleet(
            FeedbackRule(), [3, 4, 5], validate=True
        )
        for t in range(run.trials):
            verify_mis(graph, run.mis_set(t))

    def test_record_beeps_history(self):
        graph = grid_graph(4, 4)
        run = FleetSimulator(graph).run_fleet(
            FeedbackRule(), [7, 8], record_beeps=True
        )
        history = run.beep_history
        assert history is not None
        assert history.shape == (int(run.rounds.max()), 2, 16)
        # The history must re-aggregate to the per-node beep totals.
        assert np.array_equal(history.sum(axis=0), run.beeps_by_node)
        # A finished trial beeps nowhere after its final round.
        for t in range(2):
            assert not history[int(run.rounds[t]):, t, :].any()

    def test_trial_run_packaging(self):
        graph = grid_graph(3, 4)
        run = FleetSimulator(graph).run_fleet(FeedbackRule(), [21])
        packaged = run.trial_run(0)
        assert packaged.rule_name == "feedback"
        assert packaged.num_vertices == 12
        assert packaged.rounds == int(run.rounds[0])
        assert packaged.mis == run.mis_set(0)
        assert packaged.mean_beeps_per_node == pytest.approx(
            float(run.mean_beeps[0])
        )


class TestBatchDispatch:
    def test_rejects_stateful_rule(self):
        with pytest.raises(ValueError, match="trial-parallel"):
            run_batch(grid_graph(3, 3), _StatefulRule, 4, master_seed=5)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            run_batch(grid_graph(3, 3), FeedbackRule, 0, master_seed=5)


class TestArmadaSimulator:
    """Construction, validation and batching rules of the armada."""

    def _graphs(self, count=3, n=15):
        return [gnp_random_graph(n, 0.4, Random(500 + g)) for g in range(count)]

    def test_rejects_empty_graph_list(self):
        from repro.engine.fleet import ArmadaSimulator

        with pytest.raises(ValueError, match="at least one graph"):
            ArmadaSimulator([])

    def test_rejects_mixed_vertex_counts(self):
        from repro.engine.fleet import ArmadaSimulator

        with pytest.raises(ValueError, match="vertex count"):
            ArmadaSimulator([grid_graph(3, 3), grid_graph(3, 4)])

    def test_rejects_bad_backend_and_max_rounds(self):
        from repro.engine.fleet import ArmadaSimulator

        with pytest.raises(ValueError, match="backend"):
            ArmadaSimulator(self._graphs(), backend="csr")
        with pytest.raises(ValueError, match="max_rounds"):
            ArmadaSimulator(self._graphs(), max_rounds=0)

    def test_auto_backend_respects_memory_budget(self):
        from repro.engine.fleet import ArmadaSimulator

        small = ArmadaSimulator(self._graphs(count=2, n=10))
        assert small.backend == "dense"
        # Many copies of a large graph overflow the dense stack budget
        # even though each graph alone would resolve dense.
        n = DENSE_VERTEX_LIMIT // 2
        wide = ArmadaSimulator([empty_graph(n) for _ in range(5)])
        assert wide.backend == "sparse"

    def test_rejects_mismatched_seed_rows(self):
        from repro.engine.fleet import ArmadaSimulator

        armada = ArmadaSimulator(self._graphs(count=2))
        with pytest.raises(ValueError, match="one seed row per graph"):
            armada.run_armada(FeedbackRule(), [[1, 2]])
        with pytest.raises(ValueError, match="at least one seed"):
            armada.run_armada(FeedbackRule(), [[1, 2], []])

    def test_rejects_non_trial_parallel_rule(self):
        from repro.engine.fleet import ArmadaSimulator

        armada = ArmadaSimulator(self._graphs(count=2))
        with pytest.raises(ValueError, match="trial-parallel"):
            armada.run_armada(_StatefulRule(), [[1], [2]])

    def test_ragged_rows_freeze_padding_slots(self):
        """Groups of different sizes coexist: each graph's run reports
        exactly its own trial count."""
        from repro.engine.fleet import ArmadaSimulator

        graphs = self._graphs(count=3)
        seed_rows = [
            derive_seed_block(11, g, 1, count=count)
            for g, count in enumerate((5, 1, 3))
        ]
        runs = ArmadaSimulator(graphs).run_armada(
            FeedbackRule(), seed_rows, validate=True
        )
        assert [run.trials for run in runs] == [5, 1, 3]
        for run in runs:
            assert run.rounds.shape == (run.trials,)
            assert (run.rounds >= 1).all()
            assert run.membership.shape == (run.trials, 15)

    def test_single_graph_armada_equals_fleet(self):
        """The degenerate one-graph armada is just a counter-mode fleet."""
        from repro.engine.fleet import ArmadaSimulator

        graph = self._graphs(count=1)[0]
        seeds = derive_seed_block(13, 0, 1, count=6)
        armada_run = ArmadaSimulator([graph]).run_armada(
            FeedbackRule(), [seeds]
        )[0]
        fleet_run = FleetSimulator(graph).run_fleet(
            FeedbackRule(), seeds, rng_mode="counter"
        )
        assert np.array_equal(armada_run.rounds, fleet_run.rounds)
        assert np.array_equal(armada_run.membership, fleet_run.membership)
        assert np.array_equal(
            armada_run.beeps_by_node, fleet_run.beeps_by_node
        )
