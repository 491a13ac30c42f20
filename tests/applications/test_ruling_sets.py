"""Tests for graph powers and ruling sets."""

from random import Random

import pytest

from repro.applications.ruling_sets import (
    graph_power,
    hop_distance,
    ruling_set,
    verify_ruling_set,
)
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
)


class TestGraphPower:
    def test_power_one_is_identity(self, c5):
        assert graph_power(c5, 1) == c5

    def test_path_squared(self):
        squared = graph_power(path_graph(5), 2)
        assert squared.has_edge(0, 2)
        assert squared.has_edge(0, 1)
        assert not squared.has_edge(0, 3)

    def test_cycle_power_saturates(self):
        g = cycle_graph(7)
        assert graph_power(g, 3) == complete_graph(7)

    def test_disconnected_components_stay_apart(self):
        g = Graph(4, [(0, 1), (2, 3)])
        powered = graph_power(g, 5)
        assert not powered.has_edge(0, 2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            graph_power(path_graph(3), 0)


class TestHopDistance:
    def test_path_distances(self):
        g = path_graph(5)
        assert hop_distance(g, 0, 4) == 4
        assert hop_distance(g, 2, 2) == 0

    def test_unreachable(self):
        g = Graph(3, [(0, 1)])
        assert hop_distance(g, 0, 2) is None


class TestVerifyRulingSet:
    def test_mis_is_2_1_ruling(self, p4):
        assert verify_ruling_set(p4, {0, 2}, 2, 1) == {0, 2}

    def test_too_close_rejected(self):
        with pytest.raises(AssertionError, match="distance"):
            verify_ruling_set(path_graph(4), {0, 1}, 2, 1)

    def test_uncovered_rejected(self):
        with pytest.raises(AssertionError, match="farther"):
            verify_ruling_set(path_graph(7), {0}, 2, 1)


class TestRulingSet:
    def test_alpha_two_is_mis(self, random50):
        from repro.graphs.validation import is_maximal_independent_set

        chosen = ruling_set(random50, 2, Random(1))
        assert is_maximal_independent_set(random50, chosen)

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_grid_ruling_sets(self, alpha):
        graph = grid_graph(7, 7)
        chosen = ruling_set(graph, alpha, Random(alpha))
        verify_ruling_set(graph, chosen, alpha, alpha - 1)
        assert chosen

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graph_three_ruling(self, seed):
        graph = gnp_random_graph(30, 0.15, Random(seed))
        chosen = ruling_set(graph, 3, Random(seed + 9))
        verify_ruling_set(graph, chosen, 3, 2)

    def test_tree_ruling(self):
        tree = path_graph(40)
        chosen = ruling_set(tree, 4, Random(6))
        verify_ruling_set(tree, chosen, 4, 3)

    def test_higher_alpha_gives_sparser_sets(self):
        graph = grid_graph(8, 8)
        mis = ruling_set(graph, 2, Random(7))
        sparse = ruling_set(graph, 4, Random(8))
        assert len(sparse) < len(mis)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            ruling_set(path_graph(3), 1, Random(1))
