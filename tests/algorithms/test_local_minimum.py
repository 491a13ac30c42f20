"""Tests for the deterministic local-minimum-ID baseline."""

import math
from random import Random

import pytest

from repro.algorithms.feedback import FeedbackMIS
from repro.algorithms.local_minimum import LocalMinimumIDMIS
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import complete_graph, empty_graph, path_graph


def adversarial_path_ids(n):
    """The worst-case ID assignment for a path: strictly increasing.

    With IDs 0,1,2,…,n-1 along a path, only the current left-most active
    vertex is ever a local minimum, so the algorithm needs Θ(n) rounds —
    the canonical separation from the randomized O(log n) algorithms.
    """
    return list(range(n))


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        graph = gnp_random_graph(30, 0.3, Random(seed))
        LocalMinimumIDMIS().run(graph, Random(seed + 5)).verify()

    def test_complete_graph_picks_min_id(self):
        run = LocalMinimumIDMIS(ids=list(range(8))).run(
            complete_graph(8), Random(1)
        )
        assert run.mis == {0}
        assert run.rounds == 1

    def test_empty_graph_one_round(self):
        run = LocalMinimumIDMIS().run(empty_graph(5), Random(2))
        run.verify()
        assert run.rounds == 1

    def test_deterministic_with_fixed_ids(self):
        graph = gnp_random_graph(20, 0.4, Random(3))
        ids = list(range(20))
        a = LocalMinimumIDMIS(ids=ids).run(graph, Random(4))
        b = LocalMinimumIDMIS(ids=ids).run(graph, Random(999))
        assert a.mis == b.mis
        assert a.rounds == b.rounds

    def test_ids_must_be_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            LocalMinimumIDMIS(ids=[0, 0, 1]).run(path_graph(3), Random(1))

    def test_registered(self):
        from repro.algorithms.registry import make_algorithm

        run = make_algorithm("local-minimum-id").run(
            gnp_random_graph(20, 0.3, Random(5)), Random(6)
        )
        run.verify()


class TestWorstCase:
    def test_adversarial_path_is_linear(self):
        """Increasing IDs along a path force one join per round: Θ(n)."""
        n = 40
        graph = path_graph(n)
        run = LocalMinimumIDMIS(ids=adversarial_path_ids(n)).run(
            graph, Random(7)
        )
        run.verify()
        assert run.rounds >= n // 2 - 1

    def test_randomized_algorithm_beats_adversarial_case(self):
        """The separation the paper's introduction is about."""
        n = 40
        graph = path_graph(n)
        deterministic = LocalMinimumIDMIS(ids=adversarial_path_ids(n)).run(
            graph, Random(8)
        )
        feedback_rounds = [
            FeedbackMIS().run(graph, Random(100 + t)).rounds
            for t in range(10)
        ]
        mean_feedback = sum(feedback_rounds) / len(feedback_rounds)
        assert mean_feedback < deterministic.rounds / 2
        assert mean_feedback < 8 * math.log2(n)

    def test_random_ids_typically_fast(self):
        """With random IDs the same rule finishes in O(log n) w.h.p."""
        graph = path_graph(60)
        rounds = [
            LocalMinimumIDMIS().run(graph, Random(t)).rounds
            for t in range(10)
        ]
        assert sum(rounds) / len(rounds) < 20
