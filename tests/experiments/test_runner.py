"""Tests for the generic trial runner."""

import pytest

from repro.algorithms.feedback import FeedbackMIS
from repro.algorithms.greedy import SequentialGreedyMIS
from repro.beeping.faults import FaultModel
from repro.engine.applications import APPLICATION_RULES
from repro.engine.messages import MESSAGE_RULES
from repro.experiments.runner import run_trials
from repro.graphs.random_graphs import gnp_random_graph


def graph_factory(rng):
    return gnp_random_graph(25, 0.4, rng)


class TestRunTrials:
    def test_outcome_count_and_fields(self):
        outcomes = run_trials(FeedbackMIS, graph_factory, 5, master_seed=1)
        assert len(outcomes) == 5
        for index, outcome in enumerate(outcomes):
            assert outcome.trial == index
            assert outcome.rounds >= 1
            assert outcome.mis_size >= 1
            assert outcome.mean_beeps_per_node >= 0.0

    def test_reproducible(self):
        a = run_trials(FeedbackMIS, graph_factory, 4, master_seed=2)
        b = run_trials(FeedbackMIS, graph_factory, 4, master_seed=2)
        assert a == b

    def test_seed_changes_outcomes(self):
        a = run_trials(FeedbackMIS, graph_factory, 4, master_seed=3)
        b = run_trials(FeedbackMIS, graph_factory, 4, master_seed=4)
        assert a != b

    def test_graphs_vary_between_trials(self):
        outcomes = run_trials(FeedbackMIS, graph_factory, 6, master_seed=5)
        # Different graphs -> almost surely different MIS sizes/rounds mix.
        assert len({(o.rounds, o.mis_size) for o in outcomes}) > 1

    def test_faults_passed_through(self):
        faults = FaultModel(spurious_beep_probability=0.3)
        outcomes = run_trials(
            FeedbackMIS, graph_factory, 3, master_seed=6, faults=faults
        )
        assert len(outcomes) == 3

    def test_non_beeping_algorithm(self):
        outcomes = run_trials(
            SequentialGreedyMIS, graph_factory, 3, master_seed=7
        )
        assert all(o.rounds == 1 for o in outcomes)
        assert all(o.mean_beeps_per_node == 0.0 for o in outcomes)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            run_trials(FeedbackMIS, graph_factory, 0, master_seed=8)


class TestRunFleetTrials:
    def _run(self, **kwargs):
        from repro.engine.rules import FeedbackRule
        from repro.experiments.runner import run_fleet_trials

        defaults = dict(trials=9, master_seed=21, graphs=3)
        defaults.update(kwargs)
        return run_fleet_trials(FeedbackRule, graph_factory, **defaults)

    def test_outcome_count_and_fields(self):
        outcomes = self._run()
        assert len(outcomes) == 9
        for index, outcome in enumerate(outcomes):
            assert outcome.trial == index
            assert outcome.rounds >= 1
            assert outcome.mis_size >= 1
            assert outcome.mean_beeps_per_node > 0.0
            assert outcome.messages == outcome.bits > 0

    def test_reproducible(self):
        assert self._run() == self._run()

    def test_seed_changes_outcomes(self):
        assert self._run(master_seed=22) != self._run(master_seed=23)

    def test_uneven_split_runs_every_trial(self):
        outcomes = self._run(trials=7, graphs=3)
        assert [o.trial for o in outcomes] == list(range(7))

    @pytest.mark.parametrize("rng_mode", ("stream", "counter"))
    def test_matches_per_trial_engine_on_same_seeds(self, rng_mode):
        """Group g / trial t must equal a lone run on seed (g, 1, t) in
        the same rng mode — for counter mode this pins the armada batch
        to the one-seed fleet."""
        from repro.beeping.rng import RngStream, derive_seed
        from repro.engine.fleet import FleetSimulator
        from repro.engine.rules import FeedbackRule

        outcomes = self._run(
            trials=6, graphs=2, master_seed=31, rng_mode=rng_mode
        )
        stream = RngStream(31)
        flat = 0
        for g in range(2):
            graph = graph_factory(stream.child(g, 0))
            simulator = FleetSimulator(graph)
            for t in range(3):
                lone = simulator.run_fleet(
                    FeedbackRule(),
                    [derive_seed(31, g, 1, t)],
                    rng_mode=rng_mode,
                ).trial_run(0)
                assert outcomes[flat].rounds == lone.rounds
                assert outcomes[flat].mis_size == len(lone.mis)
                expected_bits = sum(
                    int(lone.beeps_by_node[v]) * graph.degree(v)
                    for v in graph.vertices()
                )
                assert outcomes[flat].bits == expected_bits
                flat += 1

    def test_default_mode_is_counter(self):
        """The fleet/sweep hot path runs the counter discipline unless a
        caller pins the golden-trace stream mode."""
        assert self._run() == self._run(rng_mode="counter")
        assert self._run() != self._run(rng_mode="stream")

    def test_trial_range_windows_concatenate_in_counter_mode(self):
        """Armada batching of partial groups must keep the shard
        contract: window outcomes equal the slice of the full run."""
        full = self._run(trials=9, graphs=3)
        parts = []
        for window in ((0, 2), (2, 7), (7, 9)):
            parts.extend(self._run(trials=9, graphs=3, trial_range=window))
        assert parts == full

    def test_counter_mode_handles_heterogeneous_graph_sizes(self):
        """A graph factory whose size depends on the draw gives a window
        of mixed widths: ``run_fleet_trials`` runs one armada per width,
        and every trial must still match the one-seed fleet."""
        from repro.beeping.rng import RngStream, derive_seed
        from repro.engine.fleet import FleetSimulator
        from repro.engine.rules import FeedbackRule
        from repro.experiments.runner import run_fleet_trials

        def varying_factory(rng):
            return gnp_random_graph(10 + rng.randrange(12), 0.4, rng)

        outcomes = run_fleet_trials(
            FeedbackRule, varying_factory, 4, master_seed=77, graphs=2
        )
        assert [o.trial for o in outcomes] == list(range(4))
        stream = RngStream(77)
        sizes = {varying_factory(stream.child(g, 0)).num_vertices
                 for g in range(2)}
        assert len(sizes) == 2  # two widths, so two armadas
        flat = 0
        for g in range(2):
            graph = varying_factory(RngStream(77).child(g, 0))
            simulator = FleetSimulator(graph)
            for t in range(2):
                lone = simulator.run_fleet(
                    FeedbackRule(),
                    [derive_seed(77, g, 1, t)],
                    rng_mode="counter",
                ).trial_run(0)
                assert outcomes[flat].rounds == lone.rounds
                assert outcomes[flat].mis_size == len(lone.mis)
                flat += 1

    def test_graph_seed_independent_of_trial_seeds(self):
        """The graph draw path (g, 0) must not collide with any trial path."""
        from repro.beeping.rng import derive_seed, derive_seed_block

        graph_seed = derive_seed(21, 0, 0)
        trial_seeds = {int(s) for s in derive_seed_block(21, 0, 1, count=16)}
        assert graph_seed not in trial_seeds

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="trials"):
            self._run(trials=0)
        with pytest.raises(ValueError, match="graphs"):
            self._run(graphs=0)


class TestRunFleetTrialsMessages:
    """The message-passing rules ride the same fleet runner contract."""

    def _run(self, rule_name="luby-permutation", **kwargs):
        from repro.engine.messages import MESSAGE_RULES
        from repro.experiments.runner import run_fleet_trials

        defaults = dict(trials=9, master_seed=43, graphs=3)
        defaults.update(kwargs)
        return run_fleet_trials(
            MESSAGE_RULES[rule_name], graph_factory, **defaults
        )

    def test_outcome_fields(self):
        outcomes = self._run()
        assert [o.trial for o in outcomes] == list(range(9))
        for outcome in outcomes:
            assert outcome.rounds >= 1
            assert outcome.mis_size >= 1
            assert outcome.mean_beeps_per_node == 0.0  # no beeps
            assert outcome.messages > 0
            assert outcome.bits >= outcome.messages

    def test_trial_range_windows_concatenate(self):
        """Windowed message-armada runs keep the shard contract."""
        full = self._run(rule_name="metivier")
        parts = []
        for window in ((0, 2), (2, 7), (7, 9)):
            parts.extend(self._run(rule_name="metivier", trial_range=window))
        assert parts == full

    def test_matches_message_fleet_on_same_seeds(self):
        """Group g / trial t must equal a lone message-fleet run on the
        group's seed window — the armada stacking never changes rows."""
        from repro.beeping.rng import RngStream, derive_seed_block
        from repro.engine.messages import (
            MESSAGE_RULES,
            MessageFleetSimulator,
        )

        outcomes = self._run(trials=6, graphs=2, master_seed=59)
        stream = RngStream(59)
        flat = 0
        for g in range(2):
            graph = graph_factory(stream.child(g, 0))
            run = MessageFleetSimulator(graph).run_fleet(
                MESSAGE_RULES["luby-permutation"](),
                derive_seed_block(59, g, 1, count=3),
            )
            for t in range(3):
                assert outcomes[flat].rounds == int(run.rounds[t])
                assert outcomes[flat].mis_size == int(
                    run.membership[t].sum()
                )
                assert outcomes[flat].messages == int(run.messages[t])
                assert outcomes[flat].bits == int(run.bits[t])
                flat += 1

    def test_stream_mode_rejected(self):
        with pytest.raises(ValueError, match="counter"):
            self._run(rng_mode="stream")

    def test_faults_rejected(self):
        from repro.beeping.faults import FaultModel

        with pytest.raises(ValueError, match="fault"):
            self._run(faults=FaultModel(beep_loss_probability=0.2))


def vertex_count_factory(rng):
    """G(12, 0.4) or G(15, 0.4), by a coin flip: two armada widths."""
    n = 12 if rng.random() < 0.5 else 15
    return gnp_random_graph(n, 0.4, rng)


def edge_count_factory(rng):
    """The 3 x 4 grid (17 edges) or hex lattice (23 edges), by a coin
    flip: one vertex count, but two widths of the matching host (the line
    graph has one vertex per edge)."""
    from repro.graphs.structured import grid_graph, hex_lattice_graph

    return grid_graph(3, 4) if rng.random() < 0.5 else hex_lattice_graph(3, 4)


def _seed_drawing(factory, measure, pattern):
    """The first master seed whose graphs ``0, 1, ...`` measure ``pattern``."""
    from repro.beeping.rng import RngStream

    for seed in range(2000):
        stream = RngStream(seed)
        drawn = tuple(
            measure(factory(stream.child(g, 0))) for g in range(len(pattern))
        )
        if drawn == pattern:
            return seed
    raise AssertionError(f"no seed below 2000 draws {pattern}")


def _lone_row(rule_factory, graph, seed, rng_mode):
    """``(rounds, mis_size, mean_beeps, bits)`` of the one-seed fleet run
    of the rule's fabric on ``graph``."""
    from repro.engine.applications import (
        ApplicationFleetSimulator,
        ApplicationRule,
    )
    from repro.engine.fleet import FleetSimulator
    from repro.engine.messages import MessageFleetSimulator, MessageRule

    rule = rule_factory()
    if isinstance(rule, MessageRule):
        run = MessageFleetSimulator(graph).run_fleet(rule, [seed])
        return (int(run.rounds[0]), int(run.membership[0].sum()), 0.0,
                int(run.bits[0]))
    if isinstance(rule, ApplicationRule):
        simulator = ApplicationFleetSimulator(graph, rule)
        run = simulator.run_fleet([seed])
        host, mis_size = simulator.host, rule.output_size(run, 0)
    else:
        run = FleetSimulator(graph).run_fleet(rule, [seed], rng_mode=rng_mode)
        host, mis_size = graph, int(run.membership[0].sum())
    bits = sum(
        int(run.beeps_by_node[0][v]) * host.degree(v) for v in host.vertices()
    )
    return int(run.rounds[0]), mis_size, float(run.mean_beeps[0]), bits


class TestMixedWidths:
    """Graphs of two widths in one window: one armada per width, rows in
    trial order, each equal to its lone one-seed run."""

    # name -> (rule factory, rng mode, graph factory, width, widths drawn,
    #          the probe counting armada runs)
    CASES = {
        "feedback-counter": ("feedback", "counter", vertex_count_factory,
                             "num_vertices", (12, 15, 12),
                             "engine.armada.runs"),
        "feedback-stream": ("feedback", "stream", vertex_count_factory,
                            "num_vertices", (12, 15, 12),
                            "engine.armada.runs"),
        "luby-permutation": ("luby-permutation", "counter",
                             vertex_count_factory, "num_vertices",
                             (12, 15, 12), "engine.message.runs"),
        "mis-matching": ("mis-matching", "counter", edge_count_factory,
                         "num_edges", (17, 23, 17), "engine.armada.runs"),
    }

    @pytest.fixture(params=list(CASES))
    def case(self, request):
        from repro.sweep.spec import FLEET_RULES

        name, rng_mode, factory, width, pattern, probe = self.CASES[
            request.param
        ]
        seed = _seed_drawing(
            factory, lambda graph: getattr(graph, width), pattern
        )
        return FLEET_RULES[name], rng_mode, factory, seed, probe

    def _run(self, case, **kwargs):
        from repro.experiments.runner import run_fleet_trials

        rule_factory, rng_mode, factory, seed, _ = case
        return run_fleet_trials(
            rule_factory, factory, 9, seed, graphs=3, rng_mode=rng_mode,
            **kwargs,
        )

    def test_one_armada_per_width(self, case):
        from repro.telemetry.probes import capture

        with capture() as collector:
            outcomes = self._run(case)
        assert collector.counters[case[4]] == 2
        assert [o.trial for o in outcomes] == list(range(9))

    def test_rows_equal_lone_one_seed_runs(self, case):
        from repro.beeping.rng import RngStream, derive_seed

        rule_factory, rng_mode, factory, seed, _ = case
        outcomes = self._run(case)
        for g in range(3):
            graph = factory(RngStream(seed).child(g, 0))
            for t in range(3):
                outcome = outcomes[3 * g + t]
                assert (
                    outcome.rounds,
                    outcome.mis_size,
                    outcome.mean_beeps_per_node,
                    outcome.bits,
                ) == _lone_row(
                    rule_factory, graph, derive_seed(seed, g, 1, t), rng_mode
                ), (g, t)

    def test_trial_range_windows_concatenate(self, case):
        full = self._run(case)
        parts = []
        for window in ((0, 2), (2, 7), (7, 9)):
            parts.extend(self._run(case, trial_range=window))
        assert parts == full


class TestOneGuard:
    """Message and application rules are counter-only and fault-free,
    and every entry point says so in the same words."""

    @pytest.mark.parametrize("violation", ("stream", "faulty"))
    @pytest.mark.parametrize(
        "name", sorted({**MESSAGE_RULES, **APPLICATION_RULES})
    )
    def test_every_entry_point_raises_the_same_error(self, name, violation):
        from random import Random

        from repro.engine.batch import run_batch
        from repro.experiments.runner import run_fleet_trials
        from repro.sweep.spec import FLEET_RULES, CellSpec

        rule_factory = FLEET_RULES[name]
        rng_mode = "stream" if violation == "stream" else "counter"
        loss = 0.1 if violation == "faulty" else 0.0
        faults = FaultModel(beep_loss_probability=loss)
        entry_points = (
            lambda: CellSpec(
                algorithm=name, n=12, trials=2, rng_mode=rng_mode,
                beep_loss=loss,
            ),
            lambda: run_batch(
                gnp_random_graph(12, 0.4, Random(1)), rule_factory, 2, 1,
                rng_mode=rng_mode, faults=faults,
            ),
            lambda: run_fleet_trials(
                rule_factory, graph_factory, 2, 1, rng_mode=rng_mode,
                faults=faults,
            ),
        )
        errors = set()
        for entry_point in entry_points:
            with pytest.raises(ValueError) as raised:
                entry_point()
            errors.add(str(raised.value))
        assert len(errors) == 1, errors
        (error,) = errors
        assert repr(name) in error
        if violation == "stream":
            assert "counter fabric only" in error
        else:
            assert "does not support fault injection" in error
