"""Tests for the feedback algorithm adapter (the paper's algorithm)."""

import math
from random import Random

import pytest

from repro.algorithms.feedback import FeedbackMIS
from repro.core.variants import heterogeneous_feedback_factory
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import complete_graph, grid_graph, star_graph


class TestBasics:
    def test_name(self):
        assert FeedbackMIS().name == "feedback"

    def test_custom_factory(self):
        algorithm = FeedbackMIS(
            node_factory=heterogeneous_feedback_factory(seed=1)
        )
        run = algorithm.run(complete_graph(6), Random(2))
        run.verify()

    def test_run_reports_beeps(self, random50):
        run = FeedbackMIS().run(random50, Random(3))
        assert run.beeps_by_node is not None
        assert len(run.beeps_by_node) == 50
        assert run.messages == run.bits
        assert run.simulation is not None

    def test_instance_reusable_across_runs(self, random50):
        algorithm = FeedbackMIS()
        a = algorithm.run(random50, Random(4))
        b = algorithm.run(random50, Random(4))
        assert a.mis == b.mis  # stateless across calls


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, seed):
        graph = gnp_random_graph(35, 0.4, Random(seed))
        FeedbackMIS().run(graph, Random(seed + 100)).verify()

    def test_complete_graph_single_winner(self):
        run = FeedbackMIS().run(complete_graph(12), Random(5))
        run.verify()
        assert run.mis_size == 1

    def test_star_graph(self):
        run = FeedbackMIS().run(star_graph(15), Random(6))
        run.verify()

    def test_grid_graph(self):
        run = FeedbackMIS().run(grid_graph(8, 8), Random(7))
        run.verify()


class TestPerformanceShape:
    """The Theorem 2 / Corollary 5 shape: rounds grow like log n."""

    def test_rounds_logarithmic_on_random_graphs(self):
        trials = 8
        means = {}
        for n in (32, 256):
            total = 0
            for t in range(trials):
                graph = gnp_random_graph(n, 0.5, Random(1000 * n + t))
                run = FeedbackMIS().run(graph, Random(2000 * n + t))
                total += run.rounds
            means[n] = total / trials
        # Paper: ~2.5 log2 n.  Allow a generous band.
        for n, mean_rounds in means.items():
            assert mean_rounds < 8 * math.log2(n)
        # Growth from n=32 to n=256 should be far from linear (8x).
        assert means[256] < 3 * means[32]

    def test_beeps_per_node_bounded(self):
        """Theorem 6: O(1) beeps per node; the paper measures ~1.1."""
        for n in (20, 80, 160):
            graph = gnp_random_graph(n, 0.5, Random(n))
            run = FeedbackMIS().run(graph, Random(n + 1))
            assert run.mean_beeps_per_node < 4.0
