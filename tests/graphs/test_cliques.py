"""Unit tests for clique families and the Theorem 1 construction."""

import pytest

from repro.graphs.cliques import (
    disjoint_cliques,
    theorem1_clique_sizes,
    theorem1_family,
)


def assert_disjoint_cliques(graph, sizes):
    """``graph`` is the cliques ``sizes`` laid out on consecutive vertex
    blocks: every block is complete and no edge leaves its block."""
    assert graph.num_vertices == sum(sizes)
    start = 0
    for k in sizes:
        block = set(range(start, start + k))
        for v in block:
            assert set(graph.neighbors(v)) == block - {v}
        start += k


class TestDisjointCliques:
    def test_vertex_and_edge_counts(self):
        g = disjoint_cliques([3, 2, 4])
        assert g.num_vertices == 9
        assert g.num_edges == 3 + 1 + 6

    def test_components_are_cliques(self):
        assert_disjoint_cliques(disjoint_cliques([4, 3]), [4, 3])

    def test_size_one_cliques_are_isolated(self):
        g = disjoint_cliques([1, 1, 1])
        assert g.num_vertices == 3
        assert g.num_edges == 0

    def test_empty_list(self):
        g = disjoint_cliques([])
        assert g.num_vertices == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            disjoint_cliques([3, -1])


class TestTheorem1Family:
    def test_default_copies_equals_side(self):
        sizes = theorem1_clique_sizes(4)
        assert sizes == [1] * 4 + [2] * 4 + [3] * 4 + [4] * 4

    def test_explicit_copies(self):
        sizes = theorem1_clique_sizes(3, copies=2)
        assert sizes == [1, 1, 2, 2, 3, 3]

    def test_vertex_count_formula(self):
        side = 5
        g = theorem1_family(side)
        # copies * side * (side + 1) / 2 with copies = side.
        assert g.num_vertices == side * side * (side + 1) // 2

    def test_contains_every_clique_size(self):
        side = 4
        sizes = theorem1_clique_sizes(side, copies=1)
        assert sorted(sizes) == [1, 2, 3, 4]
        assert_disjoint_cliques(theorem1_family(side, copies=1), sizes)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            theorem1_family(0)
        with pytest.raises(ValueError):
            theorem1_clique_sizes(3, copies=-1)

    def test_mis_size_is_number_of_cliques(self):
        # Every MIS of a disjoint clique union picks exactly one vertex per
        # clique.
        from random import Random

        from repro.algorithms.greedy import greedy_mis
        from repro.graphs.validation import verify_mis

        g = theorem1_family(4, copies=2)
        mis = greedy_mis(g)
        verify_mis(g, mis)
        assert len(mis) == 8  # 2 copies x 4 clique sizes
