"""Property-based tests (hypothesis) for the graph substrate."""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.validation import (
    is_independent_set,
    is_maximal_independent_set,
    uncovered_vertices,
)
from repro.algorithms.greedy import greedy_mis


@st.composite
def graphs(draw, max_vertices: int = 24) -> Graph:
    """Arbitrary small graphs via seeded G(n, p)."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return gnp_random_graph(n, p, Random(seed))


@given(graphs())
def test_handshake_lemma(graph):
    assert sum(graph.degrees()) == 2 * graph.num_edges


@given(graphs())
def test_edges_are_canonical_and_unique(graph):
    edges = list(graph.edges())
    assert all(u < v for u, v in edges)
    assert len(edges) == len(set(edges)) == graph.num_edges


@given(graphs())
def test_neighbor_relation_symmetric(graph):
    for v in graph.vertices():
        for w in graph.neighbors(v):
            assert v in graph.neighbor_set(w)


@given(graphs())
def test_greedy_mis_is_always_mis(graph):
    mis = greedy_mis(graph)
    assert is_maximal_independent_set(graph, mis)


@given(graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_random_order_greedy_is_mis(graph, seed):
    order = list(graph.vertices())
    Random(seed).shuffle(order)
    mis = greedy_mis(graph, order)
    assert is_maximal_independent_set(graph, mis)


@given(graphs())
def test_uncovered_of_empty_set_is_everything(graph):
    assert uncovered_vertices(graph, []) == list(graph.vertices())


@given(graphs())
def test_independent_subsets_of_mis(graph):
    mis = greedy_mis(graph)
    # Every subset of an independent set is independent.
    subset = {v for v in mis if v % 2 == 0}
    assert is_independent_set(graph, subset)


@given(graphs(max_vertices=12))
@settings(max_examples=30)
def test_adjacency_matrix_matches_has_edge(graph):
    matrix = graph.adjacency_matrix()
    for u in graph.vertices():
        for v in graph.vertices():
            if u != v:
                assert matrix[u, v] == graph.has_edge(u, v)
