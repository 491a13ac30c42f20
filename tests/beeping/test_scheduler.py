"""Unit and property tests for the beeping round scheduler."""

from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beeping.events import Trace
from repro.beeping.node import BeepingNode, NodeState
from repro.beeping.scheduler import BeepingSimulation, TerminationError
from repro.core.policy import ExponentFeedbackNode
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import complete_graph, empty_graph, path_graph
from repro.graphs.validation import MISValidationError
from tests.beeping.doubles import FixedProbabilityNode


def feedback_factory(vertex):
    return ExponentFeedbackNode()


def always_beep_factory(vertex):
    return FixedProbabilityNode(1.0)


def never_beep_factory(vertex):
    return FixedProbabilityNode(0.0)


class TestBasicSemantics:
    def test_empty_graph_terminates_immediately(self):
        sim = BeepingSimulation(empty_graph(0), feedback_factory, Random(1))
        result = sim.run()
        assert result.num_rounds == 0
        assert result.mis == set()

    def test_isolated_vertices_all_join(self):
        sim = BeepingSimulation(empty_graph(5), feedback_factory, Random(1))
        result = sim.run()
        assert result.mis == {0, 1, 2, 3, 4}
        result.verify()

    def test_single_edge_picks_one_endpoint(self):
        sim = BeepingSimulation(
            Graph(2, [(0, 1)]), feedback_factory, Random(3)
        )
        result = sim.run()
        assert len(result.mis) == 1
        result.verify()

    def test_all_beeping_complete_graph_never_progresses_then_bounded(self):
        # With p=1 on K_n every round everyone beeps and hears: no joins.
        sim = BeepingSimulation(
            complete_graph(4), always_beep_factory, Random(1), max_rounds=10
        )
        with pytest.raises(TerminationError):
            sim.run()

    def test_never_beeping_nodes_never_terminate(self):
        sim = BeepingSimulation(
            path_graph(3), never_beep_factory, Random(1), max_rounds=5
        )
        with pytest.raises(TerminationError):
            sim.run()

    def test_max_rounds_validation(self):
        with pytest.raises(ValueError):
            BeepingSimulation(
                empty_graph(1), feedback_factory, Random(1), max_rounds=0
            )

    def test_bad_probability_rejected(self):
        class BadNode(BeepingNode):
            def beep_probability(self):
                return 1.5

            def observe_first_exchange(self, did_beep, heard_beep):
                pass

        sim = BeepingSimulation(empty_graph(1), lambda v: BadNode(), Random(1))
        with pytest.raises(ValueError, match="outside"):
            sim.run()


class TestJoinRetireRules:
    def test_lone_beeper_joins_neighbors_retire(self):
        # Star: hub 0 beeps always, leaves never.
        def factory(vertex):
            return FixedProbabilityNode(1.0 if vertex == 0 else 0.0)

        graph = Graph(4, [(0, 1), (0, 2), (0, 3)])
        sim = BeepingSimulation(graph, factory, Random(1))
        result = sim.run()
        assert result.mis == {0}
        assert result.num_rounds == 1
        assert result.states[1] is NodeState.RETIRED

    def test_contending_beepers_block_each_other(self):
        sim = BeepingSimulation(
            Graph(2, [(0, 1)]), always_beep_factory, Random(1), max_rounds=3
        )
        with pytest.raises(TerminationError):
            sim.run()
        # Both still active: mutual beeps suppress joining forever.
        assert sim.active_vertices() == [0, 1]

    def test_distant_beepers_join_same_round(self):
        # Path 0-1-2-3: 0 and 3 beep, 1 and 2 silent.
        def factory(vertex):
            return FixedProbabilityNode(1.0 if vertex in (0, 3) else 0.0)

        sim = BeepingSimulation(path_graph(4), factory, Random(1))
        result = sim.run()
        assert result.mis == {0, 3}
        assert result.num_rounds == 1

    def test_second_neighborhood_unaffected(self):
        # Path 0-1-2: only 0 beeps; 2 must stay active (then join later).
        class OnlyZeroFirstRound(BeepingNode):
            def __init__(self, vertex):
                self._vertex = vertex

            def beep_probability(self):
                return 1.0 if self._vertex == 0 else 0.0

            def observe_first_exchange(self, did_beep, heard_beep):
                pass

        sim = BeepingSimulation(
            path_graph(3), OnlyZeroFirstRound, Random(1), max_rounds=2
        )
        record = sim.step()
        assert record.joins == 1
        assert record.retirements == 1
        assert sim.active_vertices() == [2]


class TestResultAccounting:
    def test_metrics_consistency(self, random50):
        sim = BeepingSimulation(random50, feedback_factory, Random(5))
        result = sim.run()
        result.verify()
        metrics = result.metrics
        assert metrics.num_rounds == result.num_rounds
        total_inactive = sum(
            r.joins + r.retirements for r in metrics.round_records
        )
        assert total_inactive == random50.num_vertices
        assert metrics.total_beeps == sum(metrics.beeps_by_node)

    def test_mean_beeps(self, random50):
        result = BeepingSimulation(
            random50, feedback_factory, Random(6)
        ).run()
        assert result.mean_beeps_per_node == pytest.approx(
            result.metrics.total_beeps / 50
        )


class TestResultVerification:
    """``SimulationResult.verify`` names the first way an output fails."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"mis": {0, 2}, "crashed": {0}}, "crashed vertex 0"),
            ({"mis": {0, 2}, "absent": {2}}, "absent vertex 2"),
            ({"mis": {0, 1}}, "not independent"),
            ({"mis": {0}}, "vertex 2 is uncovered"),
        ],
    )
    def test_invalid_output_rejected(self, p4, changes, message):
        result = BeepingSimulation(p4, feedback_factory, Random(1)).run()
        with pytest.raises(MISValidationError, match=message):
            replace(result, **changes).verify()

    def test_unrecovered_run_is_only_checked_for_independence(self, p4):
        result = BeepingSimulation(p4, feedback_factory, Random(1)).run()
        assert replace(result, mis={0}, recovered=False).verify() == {0}


class TestDeterminism:
    def test_same_seed_same_result(self, random50):
        a = BeepingSimulation(random50, feedback_factory, Random(9)).run()
        b = BeepingSimulation(random50, feedback_factory, Random(9)).run()
        assert a.mis == b.mis
        assert a.num_rounds == b.num_rounds
        assert a.metrics.beeps_by_node == b.metrics.beeps_by_node

    def test_different_seeds_differ(self, random50):
        a = BeepingSimulation(random50, feedback_factory, Random(1)).run()
        b = BeepingSimulation(random50, feedback_factory, Random(2)).run()
        assert a.mis != b.mis or a.num_rounds != b.num_rounds


class TestTraceRecording:
    def test_trace_rounds_match(self, random50):
        trace = Trace()
        result = BeepingSimulation(
            random50, feedback_factory, Random(4), trace=trace
        ).run()
        assert trace.num_rounds == result.num_rounds
        joined_in_trace = set()
        for event in trace.rounds:
            joined_in_trace |= event.joined
        assert joined_in_trace == result.mis

    def test_trace_probabilities_recorded(self, p4):
        trace = Trace(record_probabilities=True)
        BeepingSimulation(p4, feedback_factory, Random(4), trace=trace).run()
        first = trace.rounds[0]
        assert first.probabilities is not None
        assert dict(first.probabilities) == {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5}

    def test_trace_beeps_match_metrics(self, random50):
        trace = Trace()
        result = BeepingSimulation(
            random50, feedback_factory, Random(8), trace=trace
        ).run()
        for v in random50.vertices():
            beeps = sum(v in event.beepers for event in trace.rounds)
            assert beeps == result.metrics.beeps_by_node[v]

    def test_retirement_causes_are_joined_neighbors(self, random50):
        trace = Trace()
        BeepingSimulation(
            random50, feedback_factory, Random(3), trace=trace
        ).run()
        join_rounds = {e.vertex: e.round_index for e in trace.joins}
        for retirement in trace.retirements:
            assert join_rounds[retirement.cause] == retirement.round_index
            assert random50.has_edge(retirement.vertex, retirement.cause)


class TestStepwiseExecution:
    def test_step_advances_round_index(self, p4):
        sim = BeepingSimulation(p4, feedback_factory, Random(1))
        assert sim.round_index == 0
        sim.step()
        assert sim.round_index == 1

    def test_is_terminated_flag(self):
        sim = BeepingSimulation(empty_graph(1), feedback_factory, Random(1))
        assert not sim.is_terminated
        sim.step()
        assert sim.is_terminated


@given(
    st.integers(min_value=1, max_value=20),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_feedback_always_yields_mis(n, p, seed):
    graph = gnp_random_graph(n, p, Random(seed))
    result = BeepingSimulation(
        graph, feedback_factory, Random(seed ^ 0x5EED), max_rounds=20_000
    ).run()
    result.verify()
