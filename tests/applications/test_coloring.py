"""Tests for MIS-based vertex colouring."""

from random import Random

import pytest

from repro.algorithms.greedy import SequentialGreedyMIS
from repro.algorithms.luby import LubyMIS
from repro.applications.coloring import mis_coloring, verify_coloring
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import (
    complete_graph,
    cycle_graph,
    empty_graph,
    grid_graph,
    path_graph,
)


class TestVerifyColoring:
    def test_accepts_proper(self):
        assert verify_coloring(path_graph(3), [0, 1, 0]) == 2

    def test_rejects_monochromatic_edge(self):
        with pytest.raises(AssertionError, match="monochromatic"):
            verify_coloring(path_graph(2), [3, 3])

    def test_rejects_uncoloured(self):
        with pytest.raises(AssertionError, match="uncoloured"):
            verify_coloring(path_graph(2), [0, -1])

    def test_rejects_wrong_length(self):
        with pytest.raises(AssertionError):
            verify_coloring(path_graph(3), [0, 1])


class TestMisColoring:
    def test_empty_graph_one_color(self):
        result = mis_coloring(empty_graph(5), Random(1))
        assert result.num_colors == 1
        assert result.colors == [0] * 5

    def test_complete_graph_needs_n_colors(self):
        result = mis_coloring(complete_graph(6), Random(2))
        assert result.num_colors == 6

    def test_even_cycle_two_or_three_colors(self):
        result = mis_coloring(cycle_graph(10), Random(3))
        assert result.num_colors in (2, 3)  # <= max_degree + 1 = 3

    def test_bipartite_within_bound(self):
        graph = grid_graph(4, 6)
        result = mis_coloring(graph, Random(4))
        assert result.num_colors <= graph.max_degree() + 1

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graph_bound(self, seed):
        graph = gnp_random_graph(30, 0.3, Random(seed))
        result = mis_coloring(graph, Random(seed + 10))
        verify_coloring(graph, result.colors)
        assert result.num_colors <= graph.max_degree() + 1

    @pytest.mark.parametrize("seed", range(5))
    def test_num_colors_is_the_verified_count(self, seed):
        # Regression: num_colors used to be the peeling loop counter with
        # verify_coloring's return value discarded; the two are now the
        # same number by construction.
        graph = gnp_random_graph(30, 0.3, Random(seed))
        result = mis_coloring(graph, Random(seed + 20))
        assert result.num_colors == len(set(result.colors))
        assert result.num_colors == verify_coloring(graph, result.colors)

    def test_layers_partition_vertices(self):
        graph = gnp_random_graph(25, 0.4, Random(6))
        result = mis_coloring(graph, Random(7))
        seen = sorted(v for layer in result.layers for v in layer)
        assert seen == list(graph.vertices())
        assert len(result.layers) == result.num_colors

    def test_color_classes(self):
        result = mis_coloring(path_graph(4), Random(8))
        classes = result.color_classes()
        assert sum(len(c) for c in classes.values()) == 4

    def test_rounds_accumulated(self):
        graph = gnp_random_graph(25, 0.4, Random(9))
        result = mis_coloring(graph, Random(10))
        assert result.total_rounds >= result.num_colors

    @pytest.mark.parametrize(
        "algorithm_factory", [SequentialGreedyMIS, lambda: LubyMIS()]
    )
    def test_works_with_other_algorithms(self, algorithm_factory):
        graph = gnp_random_graph(25, 0.4, Random(11))
        result = mis_coloring(graph, Random(12), algorithm=algorithm_factory())
        assert result.num_colors <= graph.max_degree() + 1
