"""Unit tests for the random graph generators."""

import math
from random import Random

import numpy as np
import pytest

from repro.graphs.random_graphs import (
    gnm_random_graph,
    gnp_random_graph,
    planted_independent_set_graph,
    random_bipartite_graph,
    random_geometric_graph,
    random_tree,
)
from repro.graphs.validation import is_independent_set


class TestGnp:
    def test_zero_probability(self):
        g = gnp_random_graph(20, 0.0, Random(1))
        assert g.num_edges == 0

    def test_unit_probability_is_complete(self):
        g = gnp_random_graph(10, 1.0, Random(1))
        assert g.num_edges == 45

    def test_determinism(self):
        a = gnp_random_graph(30, 0.4, Random(7))
        b = gnp_random_graph(30, 0.4, Random(7))
        assert a == b

    def test_different_seeds_differ(self):
        a = gnp_random_graph(30, 0.5, Random(1))
        b = gnp_random_graph(30, 0.5, Random(2))
        assert a != b

    def test_edge_count_near_expectation(self):
        n, p = 200, 0.5
        g = gnp_random_graph(n, p, Random(3))
        expected = p * n * (n - 1) / 2
        # 5 sigma tolerance: sigma^2 = C(n,2) p (1-p).
        sigma = math.sqrt(n * (n - 1) / 2 * p * (1 - p))
        assert abs(g.num_edges - expected) < 5 * sigma
        assert g.density() == pytest.approx(p, abs=0.02)

    def test_triangles_near_expectation(self):
        # Clustering in G(n, p) is p: C(n, 3) p^3 expected triangles.
        n, p = 200, 0.5
        a = gnp_random_graph(n, p, Random(2)).adjacency_matrix()
        a = a.astype(np.int64)
        expected = math.comb(n, 3) * p ** 3
        assert np.trace(a @ a @ a) // 6 == pytest.approx(expected, rel=0.05)

    def test_dense_half_has_diameter_two(self):
        g = gnp_random_graph(150, 0.5, Random(3))
        a = g.adjacency_matrix()
        # Not complete, yet every pair is adjacent or shares a neighbour.
        assert g.num_edges < math.comb(150, 2)
        assert (a | (a @ a) | np.eye(150, dtype=bool)).all()

    def test_sparse_mean_degree(self):
        n = 400
        g = gnp_random_graph(n, 8 / (n - 1), Random(6))
        assert 2 * g.num_edges / n == pytest.approx(8.0, rel=0.1)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            gnp_random_graph(5, 1.5, Random(1))
        with pytest.raises(ValueError):
            gnp_random_graph(5, -0.1, Random(1))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            gnp_random_graph(-1, 0.5, Random(1))

    def test_small_graphs(self):
        assert gnp_random_graph(0, 0.5, Random(1)).num_vertices == 0
        assert gnp_random_graph(1, 0.5, Random(1)).num_edges == 0

    def test_sparse_case_exercises_skipping(self):
        g = gnp_random_graph(500, 0.01, Random(5))
        expected = 0.01 * 500 * 499 / 2
        assert 0.5 * expected < g.num_edges < 2.0 * expected


def _legacy_gnp_edges(n, p, rng):
    """The per-edge geometric-skip loop ``gnp_random_graph`` ran before it
    drew into arrays, kept verbatim as the oracle: its ``(w, v)`` edges."""
    if p == 0.0 or n < 2:
        return []
    if p == 1.0:
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    log_q = math.log(1.0 - p)
    if log_q == 0.0:
        return []
    v = 1
    w = -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return edges


class TestGnpIdentity:
    """The array-drawing generator builds exactly the legacy loop's graph
    and leaves the rng exactly where the loop left it."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 37, 1000])
    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.5, 0.999, 1.0])
    def test_matches_legacy_loop(self, n, p):
        seed = n * 7919 + int(p * 1000)
        ours, theirs = Random(seed), Random(seed)
        graph = gnp_random_graph(n, p, ours)
        edges = _legacy_gnp_edges(n, p, theirs)
        assert list(graph.edges()) == sorted(edges)
        assert graph.num_edges == len(edges)
        assert ours.getstate() == theirs.getstate()

    def test_matches_legacy_loop_on_random_cases(self):
        meta = Random(2024)
        for _ in range(300):
            n = meta.randrange(0, 120)
            p = meta.choice([meta.random(), 1e-300, 1e-6, 1.0 - 1e-12])
            seed = meta.randrange(2 ** 32)
            ours, theirs = Random(seed), Random(seed)
            graph = gnp_random_graph(n, p, ours)
            assert list(graph.edges()) == sorted(_legacy_gnp_edges(n, p, theirs))
            assert ours.getstate() == theirs.getstate()


class TestGnm:
    def test_exact_edge_count(self):
        g = gnm_random_graph(20, 37, Random(1))
        assert g.num_edges == 37
        assert g.num_vertices == 20

    def test_extreme_counts(self):
        assert gnm_random_graph(5, 0, Random(1)).num_edges == 0
        assert gnm_random_graph(5, 10, Random(1)).num_edges == 10

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            gnm_random_graph(4, 7, Random(1))

    def test_determinism(self):
        assert gnm_random_graph(15, 30, Random(9)) == gnm_random_graph(
            15, 30, Random(9)
        )


class TestBipartite:
    def test_parts_are_independent(self):
        g = random_bipartite_graph(8, 12, 0.7, Random(2))
        assert is_independent_set(g, range(8))
        assert is_independent_set(g, range(8, 20))

    def test_full_probability(self):
        g = random_bipartite_graph(3, 4, 1.0, Random(1))
        assert g.num_edges == 12

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            random_bipartite_graph(-1, 2, 0.5, Random(1))


class TestGeometric:
    def test_radius_zero_gives_no_edges(self):
        g = random_geometric_graph(30, 0.0, Random(4))
        assert g.num_edges == 0

    def test_radius_sqrt2_gives_complete(self):
        g = random_geometric_graph(15, 1.5, Random(4))
        assert g.num_edges == 15 * 14 // 2

    def test_edges_match_distances(self):
        g, positions = random_geometric_graph(
            40, 0.3, Random(5), return_positions=True
        )
        for u in g.vertices():
            ux, uy = positions[u]
            for v in range(u + 1, g.num_vertices):
                vx, vy = positions[v]
                distance = math.hypot(ux - vx, uy - vy)
                assert g.has_edge(u, v) == (distance <= 0.3)

    def test_determinism(self):
        a = random_geometric_graph(25, 0.25, Random(6))
        b = random_geometric_graph(25, 0.25, Random(6))
        assert a == b

    def test_mean_degree_matches_unit_square_overlap(self):
        # Two uniform points of the unit square lie within r of each other
        # with probability pi r^2 - 8 r^3 / 3 + r^4 / 2 (r <= 1).
        n, r = 400, math.sqrt(8 / (math.pi * 400))
        g = random_geometric_graph(n, r, Random(6))
        expected = (n - 1) * (math.pi * r**2 - 8 * r**3 / 3 + r**4 / 2)
        assert 2 * g.num_edges / n == pytest.approx(expected, rel=0.1)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            random_geometric_graph(5, -0.1, Random(1))


class TestRandomTree:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 100])
    def test_tree_properties(self, n):
        g = random_tree(n, Random(n))
        assert g.num_vertices == n
        assert g.num_edges == max(n - 1, 0)
        assert g.is_connected()

    def test_zero_vertices(self):
        g = random_tree(0, Random(1))
        assert g.num_vertices == 0

    def test_determinism(self):
        assert random_tree(30, Random(2)) == random_tree(30, Random(2))

    def test_distribution_varies(self):
        trees = {random_tree(6, Random(seed)) for seed in range(30)}
        assert len(trees) > 5


class TestPlantedIndependentSet:
    def test_planted_set_is_independent(self):
        g, planted = planted_independent_set_graph(
            30, 10, 0.5, Random(3), return_planted=True
        )
        assert planted == list(range(10))
        assert is_independent_set(g, planted)

    def test_invalid_planted_size(self):
        with pytest.raises(ValueError):
            planted_independent_set_graph(5, 6, 0.5, Random(1))

    def test_without_return_planted(self):
        g = planted_independent_set_graph(10, 4, 0.5, Random(3))
        assert g.num_vertices == 10
