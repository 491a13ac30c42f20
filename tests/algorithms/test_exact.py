"""Tests for the exact maximum independent set solver."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.exact import MAX_EXACT_VERTICES, maximum_independent_set
from repro.graphs.cliques import disjoint_cliques, theorem1_clique_sizes
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import (
    complete_graph,
    cycle_graph,
    empty_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs.validation import is_independent_set


class TestKnownAnswers:
    def test_empty_graph(self):
        assert maximum_independent_set(empty_graph(5)) == {0, 1, 2, 3, 4}

    def test_complete_graph(self):
        assert len(maximum_independent_set(complete_graph(8))) == 1

    @pytest.mark.parametrize("n,alpha", [(2, 1), (4, 2), (5, 3), (9, 5)])
    def test_paths(self, n, alpha):
        assert len(maximum_independent_set(path_graph(n))) == alpha

    @pytest.mark.parametrize("n,alpha", [(3, 1), (4, 2), (5, 2), (8, 4), (9, 4)])
    def test_cycles(self, n, alpha):
        assert len(maximum_independent_set(cycle_graph(n))) == alpha

    def test_star(self):
        assert len(maximum_independent_set(star_graph(9))) == 9

    def test_grid(self):
        # The 3 x 4 grid is bipartite with two colour classes of 6.
        assert len(maximum_independent_set(grid_graph(3, 4))) == 6

    def test_planted_set_found(self):
        # G(24, 0.7) with every edge inside vertices 0..8 removed.
        dense = gnp_random_graph(24, 0.7, Random(1))
        graph = Graph(24, [(u, v) for u, v in dense.edges() if v >= 9])
        assert len(maximum_independent_set(graph)) >= 9

    def test_petersen_graph(self):
        # The Petersen graph has independence number 4.
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        petersen = Graph(10, outer + inner + spokes)
        assert len(maximum_independent_set(petersen)) == 4


class TestValidity:
    @pytest.mark.parametrize("seed", range(6))
    def test_result_is_independent(self, seed):
        graph = gnp_random_graph(18, 0.4, Random(seed))
        result = maximum_independent_set(graph)
        assert is_independent_set(graph, result)

    @pytest.mark.parametrize("seed", range(6))
    def test_at_least_greedy_size(self, seed):
        from repro.algorithms.greedy import greedy_mis

        graph = gnp_random_graph(18, 0.4, Random(seed))
        assert len(maximum_independent_set(graph)) >= len(greedy_mis(graph))

    def test_size_guard(self):
        with pytest.raises(ValueError, match="limited"):
            maximum_independent_set(empty_graph(MAX_EXACT_VERTICES + 1))


# ---------------------------------------------------------------------------
# Oracle: the bitmask solver against a frozen copy of the frozenset solver
# it replaced, and the independence number against brute force.
# ---------------------------------------------------------------------------


def frozenset_maximum_independent_set(graph):
    """The set-based branch and bound the bitmask solver replaced, frozen.

    Same DFS order (max ``|N(v) & cand|`` pivot, ties to the smallest
    ``v``, include first) and the same greedy clique-cover bound, over
    frozenset copies.
    """
    neighbor_sets = {v: graph.neighbor_set(v) for v in graph.vertices()}
    best = set()

    def upper_bound(candidates):
        remaining = set(candidates)
        classes = 0
        while remaining:
            classes += 1
            v = next(iter(remaining))
            clique = {v}
            for u in list(remaining):
                if all(u == c or u in neighbor_sets[c] for c in clique):
                    clique.add(u)
            remaining -= clique
        return classes

    def branch(candidates, current):
        nonlocal best
        if not candidates:
            if len(current) > len(best):
                best = set(current)
            return
        if len(current) + upper_bound(candidates) <= len(best):
            return
        pivot = max(
            candidates,
            key=lambda v: (len(neighbor_sets[v] & candidates), -v),
        )
        branch(
            candidates - neighbor_sets[pivot] - {pivot},
            current | {pivot},
        )
        branch(candidates - {pivot}, current)

    branch(frozenset(graph.vertices()), set())
    return best


def brute_force_independence_number(graph):
    """Largest independent subset, by enumerating every subset."""
    n = graph.num_vertices
    edges = list(graph.edges())
    best = 0
    for mask in range(1 << n):
        if all(not (mask >> u & 1 and mask >> v & 1) for u, v in edges):
            best = max(best, bin(mask).count("1"))
    return best


@st.composite
def small_graphs(draw, max_n=22):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.8]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = Random(seed)
    return Graph(n, [pair for pair in pairs if rng.random() < density])


class TestFrozenSetOracle:
    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_identical_set_on_random_graphs(self, graph):
        assert maximum_independent_set(
            graph
        ) == frozenset_maximum_independent_set(graph)

    @pytest.mark.parametrize(
        "graph",
        [
            Graph(0, []),
            empty_graph(7),
            complete_graph(9),
            cycle_graph(11),
            disjoint_cliques(theorem1_clique_sizes(4)),
            disjoint_cliques(theorem1_clique_sizes(5, copies=4)),
            gnp_random_graph(64, 0.08, Random(64)),
        ],
        ids=[
            "n0", "empty", "complete", "odd-cycle", "theorem1-side4",
            "theorem1-side5x4", "sparse-n64",
        ],
    )
    def test_identical_set_on_named_graphs(self, graph):
        assert maximum_independent_set(
            graph
        ) == frozenset_maximum_independent_set(graph)

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(max_n=12))
    def test_independence_number_matches_brute_force(self, graph):
        alpha = brute_force_independence_number(graph)
        assert len(maximum_independent_set(graph)) == alpha
