"""Tests for the Afek et al. Science-2011 global-schedule baseline."""

from random import Random

import pytest

from repro.algorithms.afek_global import AfekGlobalMIS, global_schedule
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import complete_graph, star_graph


class TestSchedule:
    def test_starts_low(self):
        # D = 32: initial probability 1/(2*32).
        assert global_schedule(0, 100, 32) == pytest.approx(1 / 64)

    def test_doubles_per_phase(self):
        n, d = 64, 16
        phase_length = 12  # ceil(2 * log2(64)) = 12
        assert global_schedule(0, n, d) == pytest.approx(1 / 32)
        assert global_schedule(phase_length, n, d) == pytest.approx(1 / 16)
        assert global_schedule(2 * phase_length, n, d) == pytest.approx(1 / 8)

    def test_capped_at_half(self):
        assert global_schedule(10_000, 100, 8) == 0.5

    def test_constant_within_phase(self):
        values = {global_schedule(t, 100, 32) for t in range(14)}
        assert len(values) == 1

    def test_degenerate_degree(self):
        assert global_schedule(0, 10, 0) == 0.5

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            global_schedule(-1, 10, 4)


class TestAlgorithm:
    def test_name(self):
        assert AfekGlobalMIS().name == "afek-global"

    @pytest.mark.parametrize("seed", range(5))
    def test_correctness_random(self, seed):
        graph = gnp_random_graph(30, 0.4, Random(seed))
        AfekGlobalMIS().run(graph, Random(seed + 3)).verify()

    def test_complete_graph(self):
        run = AfekGlobalMIS().run(complete_graph(16), Random(9))
        run.verify()
        assert run.mis_size == 1

    def test_star_graph(self):
        AfekGlobalMIS().run(star_graph(12), Random(10)).verify()

    def test_low_beeps_per_node(self):
        """Starting at 1/(2D) keeps beeps rare — the property the paper
        credits to the Science 2011 schedule (Section 5 discussion)."""
        graph = gnp_random_graph(60, 0.5, Random(11))
        run = AfekGlobalMIS().run(graph, Random(12))
        run.verify()
        assert run.mean_beeps_per_node < 1.0
