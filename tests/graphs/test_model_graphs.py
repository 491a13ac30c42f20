"""Tests for the small-world (Watts–Strogatz) generator."""

from random import Random

import numpy as np
import pytest

from repro.graphs.random_graphs import watts_strogatz_graph


def triangles(graph):
    a = graph.adjacency_matrix().astype(np.int64)
    return int(np.trace(a @ a @ a)) // 6


class TestWattsStrogatz:
    def test_zero_rewiring_is_ring_lattice(self):
        g = watts_strogatz_graph(20, 4, 0.0, Random(1))
        assert g.num_edges == 40
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert g.has_edge(0, 1)
        assert g.has_edge(0, 2)

    def test_edge_count_preserved_under_rewiring(self):
        base = watts_strogatz_graph(30, 4, 0.0, Random(2))
        rewired = watts_strogatz_graph(30, 4, 0.3, Random(2))
        assert rewired.num_edges == base.num_edges

    def test_rewiring_lowers_clustering(self):
        lattice = watts_strogatz_graph(100, 6, 0.0, Random(3))
        random_ish = watts_strogatz_graph(100, 6, 0.9, Random(3))
        # Same edge count, so fewer triangles means lower clustering.
        assert triangles(random_ish) < triangles(lattice)

    def test_determinism(self):
        a = watts_strogatz_graph(25, 4, 0.2, Random(4))
        b = watts_strogatz_graph(25, 4, 0.2, Random(4))
        assert a == b

    def test_saturated_ring_keeps_every_edge(self):
        # Every vertex of a 5-ring with nearest=4 already neighbours every
        # other, so no rewiring finds a free endpoint and each edge stays.
        g = watts_strogatz_graph(5, 4, 1.0, Random(1))
        assert g.num_edges == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 10, "nearest": 3, "rewire_probability": 0.1},
            {"n": 10, "nearest": 0, "rewire_probability": 0.1},
            {"n": 4, "nearest": 4, "rewire_probability": 0.1},
            {"n": 10, "nearest": 4, "rewire_probability": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            watts_strogatz_graph(rng=Random(1), **kwargs)

    def test_mis_algorithms_work(self):
        from repro.algorithms.feedback import FeedbackMIS

        g = watts_strogatz_graph(60, 6, 0.2, Random(5))
        FeedbackMIS().run(g, Random(6)).verify()
