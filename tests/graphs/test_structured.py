"""Unit tests for the structured graph families."""

import numpy as np
import pytest

from repro.graphs.structured import (
    complete_graph,
    cycle_graph,
    empty_graph,
    grid_graph,
    hex_lattice_graph,
    path_graph,
    star_graph,
)


def hop_diameter(graph):
    """Largest hop distance of a connected graph, by frontier expansion."""
    adjacency = graph.adjacency_matrix()
    reached = np.eye(graph.num_vertices, dtype=bool)
    hops = 0
    while not reached.all():
        grown = reached | (reached @ adjacency)
        assert (grown != reached).any(), "graph is disconnected"
        reached = grown
        hops += 1
    return hops


def triangle_count(graph):
    a = graph.adjacency_matrix().astype(np.int64)
    return int(np.trace(a @ a @ a)) // 6


def degree_counts(graph):
    """``{degree: number of vertices}`` over the degrees that occur."""
    histogram = np.bincount(np.diff(graph.indptr))
    return {int(d): int(c) for d, c in enumerate(histogram) if c}


class TestKnownShapes:
    """Exact hop diameters, triangle counts and degree histograms."""

    @pytest.mark.parametrize(
        "graph, expected",
        [
            pytest.param(path_graph(1), 0, id="path(1)"),
            pytest.param(path_graph(5), 4, id="path(5)"),
            pytest.param(star_graph(6), 2, id="star(6)"),
            pytest.param(complete_graph(5), 1, id="complete(5)"),
            pytest.param(cycle_graph(7), 3, id="cycle(7)"),
            pytest.param(grid_graph(3, 5), 2 + 4, id="grid(3x5)"),
            # Two row steps shift the column by at most one, so a corner
            # to the far corner takes 4 row steps and 2 sideways ones.
            pytest.param(hex_lattice_graph(5, 5), 4 + 2, id="hex(5x5)"),
            pytest.param(hex_lattice_graph(4, 6), 3 + 4, id="hex(4x6)"),
        ],
    )
    def test_diameter(self, graph, expected):
        assert hop_diameter(graph) == expected

    @pytest.mark.parametrize(
        "graph, expected",
        [
            pytest.param(complete_graph(6), 20, id="complete(6)"),
            pytest.param(path_graph(8), 0, id="path(8)"),
            pytest.param(star_graph(5), 0, id="star(5)"),
            pytest.param(grid_graph(3, 3), 0, id="grid(3x3)"),
            pytest.param(cycle_graph(3), 1, id="cycle(3)"),
            # Every unit square of cell centres splits into two triangles.
            pytest.param(hex_lattice_graph(3, 4), 2 * 2 * 3, id="hex(3x4)"),
            pytest.param(hex_lattice_graph(4, 6), 2 * 3 * 5, id="hex(4x6)"),
        ],
    )
    def test_triangle_count(self, graph, expected):
        assert triangle_count(graph) == expected

    @pytest.mark.parametrize(
        "graph, expected",
        [
            pytest.param(cycle_graph(9), {2: 9}, id="cycle(9)"),
            pytest.param(complete_graph(7), {6: 7}, id="complete(7)"),
            pytest.param(
                hex_lattice_graph(3, 4),
                {2: 2, 3: 3, 4: 4, 5: 1, 6: 2},
                id="hex(3x4)",
            ),
            pytest.param(hex_lattice_graph(4, 1), {1: 2, 2: 2}, id="hex(4x1)"),
            pytest.param(star_graph(5), {1: 5, 5: 1}, id="star(5)"),
            pytest.param(path_graph(6), {1: 2, 2: 4}, id="path(6)"),
            pytest.param(grid_graph(3, 4), {2: 4, 3: 6, 4: 2}, id="grid(3x4)"),
        ],
    )
    def test_degree_histogram(self, graph, expected):
        assert degree_counts(graph) == expected


class TestBasicFamilies:
    def test_empty_graph(self):
        g = empty_graph(7)
        assert g.num_vertices == 7
        assert g.num_edges == 0

    @pytest.mark.parametrize("n,edges", [(0, 0), (1, 0), (2, 1), (5, 10)])
    def test_complete_graph(self, n, edges):
        g = complete_graph(n)
        assert g.num_edges == edges
        assert all(g.degree(v) == n - 1 for v in g.vertices())

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_path_graph(self, n):
        g = path_graph(n)
        assert g.num_edges == max(n - 1, 0)
        if n >= 2:
            assert g.degree(0) == 1
            assert g.degree(n - 1) == 1

    def test_cycle_graph(self):
        g = cycle_graph(6)
        assert g.num_edges == 6
        assert all(g.degree(v) == 2 for v in g.vertices())
        assert g.has_edge(5, 0)
        assert hop_diameter(cycle_graph(12)) == 6

    def test_cycle_of_two_rejected(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_trivial_cycles(self):
        assert cycle_graph(0).num_edges == 0
        assert cycle_graph(1).num_edges == 0

    def test_star_graph(self):
        g = star_graph(6)
        assert g.num_vertices == 7
        assert g.degree(0) == 6
        assert all(g.degree(v) == 1 for v in range(1, 7))


class TestGrids:
    def test_grid_counts(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        # edges: 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8
        assert g.num_edges == 17

    def test_grid_corner_degrees(self):
        g = grid_graph(3, 3)
        assert g.degree(0) == 2          # corner
        assert g.degree(1) == 3          # edge
        assert g.degree(4) == 4          # centre

    def test_grid_diameter_is_manhattan(self):
        assert hop_diameter(grid_graph(4, 7)) == 3 + 6

    def test_degenerate_grids(self):
        assert grid_graph(0, 5).num_vertices == 0
        assert grid_graph(1, 5).num_edges == 4


class TestHexLattice:
    def test_interior_cell_has_six_neighbors(self):
        g = hex_lattice_graph(5, 5)
        interior = 2 * 5 + 2  # row 2, col 2
        assert g.degree(interior) == 6

    def test_has_triangles(self):
        a = hex_lattice_graph(5, 5).adjacency_matrix().astype(np.int64)
        # Every unit square of cell centres splits into two triangles.
        assert np.trace(a @ a @ a) // 6 == 2 * 4 * 4

    def test_degenerate(self):
        assert hex_lattice_graph(0, 3).num_vertices == 0
        assert hex_lattice_graph(1, 4).num_edges == 3

    def test_single_column(self):
        g = hex_lattice_graph(4, 1)
        assert g.num_vertices == 4
        assert hop_diameter(g) == 3
