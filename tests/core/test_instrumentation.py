"""Tests for the Theorem 2 proof instrumentation.

Beyond unit-testing the measure computations, these tests check the proof's
probabilistic claims *empirically* on real runs: the E4 event should be rare
(Claim 2 bounds it by 1/80 per round), and the classification must assign
exactly one event per active round.
"""

from random import Random

import pytest

from repro.beeping.events import Trace
from repro.beeping.scheduler import BeepingSimulation
from repro.core.instrumentation import (
    EventKind,
    PotentialTracker,
    classify_vertex_rounds,
    event_frequencies,
    measure,
    neighborhood_weight,
    partition_light_heavy,
    probability_map,
)
from repro.core.policy import ExponentFeedbackNode
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import complete_graph, star_graph


def run_with_trace(graph, seed):
    trace = Trace(record_probabilities=True)
    result = BeepingSimulation(
        graph, lambda v: ExponentFeedbackNode(), Random(seed), trace=trace
    ).run()
    return result, trace


class TestMeasures:
    def test_initial_measure_is_half_per_vertex(self):
        graph = complete_graph(4)
        _result, trace = run_with_trace(graph, 1)
        prob_map = probability_map(trace, 0)
        assert measure(prob_map, graph.vertices()) == pytest.approx(2.0)

    def test_inactive_vertices_have_zero_measure(self):
        graph = star_graph(5)
        _result, trace = run_with_trace(graph, 2)
        final = probability_map(trace, trace.num_rounds - 1)
        # By the last round some vertices are inactive and absent.
        assert measure(final, [999]) == 0.0

    def test_neighborhood_weight(self):
        graph = Graph(3, [(0, 1), (0, 2)])
        prob_map = {0: 0.5, 1: 0.25, 2: 0.125}
        assert neighborhood_weight(graph, prob_map, 0) == pytest.approx(0.375)
        assert neighborhood_weight(graph, prob_map, 1) == pytest.approx(0.5)

    def test_probability_map_requires_recording(self):
        graph = complete_graph(3)
        trace = Trace()  # no probability recording
        BeepingSimulation(
            graph, lambda v: ExponentFeedbackNode(), Random(3), trace=trace
        ).run()
        with pytest.raises(ValueError, match="record_probabilities"):
            probability_map(trace, 0)


class TestLightHeavyPartition:
    def test_all_light_in_small_graph(self):
        graph = complete_graph(4)
        prob_map = {v: 0.5 for v in range(4)}
        light, heavy = partition_light_heavy(graph, prob_map, 0, lam=7.0)
        assert sorted(light) == [1, 2, 3]
        assert heavy == []

    def test_heavy_detection(self):
        # Star hub with 20 leaves at weight 0.5: leaves see weight 0.5
        # (just the hub), hub sees 10.0 -> the hub is heavy from a leaf's
        # viewpoint with lambda = 7.
        graph = star_graph(20)
        prob_map = {v: 0.5 for v in range(21)}
        light, heavy = partition_light_heavy(graph, prob_map, 1, lam=7.0)
        assert heavy == [0]
        assert light == []

    def test_inactive_neighbors_skipped(self):
        graph = complete_graph(3)
        prob_map = {0: 0.5}  # 1 and 2 inactive
        light, heavy = partition_light_heavy(graph, prob_map, 0)
        assert light == [] and heavy == []


class TestClassification:
    def test_exactly_one_event_per_active_round(self):
        graph = gnp_random_graph(30, 0.5, Random(41))
        result, trace = run_with_trace(graph, 42)
        for v in graph.vertices():
            classifications = classify_vertex_rounds(graph, trace, v)
            # v is active from round 0 until it leaves; classifications
            # cover exactly that prefix.
            assert len(classifications) >= 1
            for index, classification in enumerate(classifications):
                assert classification.round_index == index
                assert classification.kind in EventKind

    def test_e4_is_rare(self):
        """Claim 2: P[E4] <= 1/80 per round.  Empirically the frequency
        over all vertices and rounds should be far below a loose 0.10."""
        graph = gnp_random_graph(40, 0.5, Random(43))
        total = 0
        e4 = 0
        for seed in range(5):
            _result, trace = run_with_trace(graph, 100 + seed)
            for v in graph.vertices():
                for classification in classify_vertex_rounds(graph, trace, v):
                    total += 1
                    if classification.kind is EventKind.E4:
                        e4 += 1
        assert total > 0
        assert e4 / total < 0.10

    def test_low_degree_vertices_mostly_e2(self):
        # In a sparse graph neighbourhood weights are tiny: E2 dominates.
        graph = gnp_random_graph(40, 0.02, Random(44))
        _result, trace = run_with_trace(graph, 45)
        frequencies = {}
        for v in graph.vertices():
            for c in classify_vertex_rounds(graph, trace, v):
                frequencies[c.kind] = frequencies.get(c.kind, 0) + 1
        assert frequencies.get(EventKind.E2, 0) >= frequencies.get(
            EventKind.E4, 0
        )

    def test_event_frequencies_sum_to_one(self):
        graph = gnp_random_graph(20, 0.4, Random(46))
        _result, trace = run_with_trace(graph, 47)
        classifications = classify_vertex_rounds(graph, trace, 0)
        frequencies = event_frequencies(classifications)
        assert sum(frequencies.values()) == pytest.approx(1.0)

    def test_event_frequencies_empty(self):
        frequencies = event_frequencies([])
        assert all(value == 0.0 for value in frequencies.values())


class TestPotentialTracker:
    def test_total_measure_decreases_overall(self):
        graph = gnp_random_graph(40, 0.5, Random(48))
        _result, trace = run_with_trace(graph, 49)
        tracker = PotentialTracker(graph, trace)
        series = tracker.total_measure_series()
        assert series[0] == pytest.approx(20.0)  # n/2 initially
        assert series[-1] < series[0]

    def test_active_counts_monotone_nonincreasing(self):
        graph = gnp_random_graph(40, 0.5, Random(50))
        _result, trace = run_with_trace(graph, 51)
        tracker = PotentialTracker(graph, trace)
        counts = tracker.active_count_series()
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == 40

    def test_neighborhood_series_stops_at_inactivity(self):
        graph = complete_graph(6)
        result, trace = run_with_trace(graph, 52)
        tracker = PotentialTracker(graph, trace)
        winner = next(iter(result.mis))
        series = tracker.neighborhood_series(winner)
        joined = next(e.round_index for e in trace.joins if e.vertex == winner)
        assert len(series) == joined + 1
