"""Unit tests for the core Graph type."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import Graph, GraphBuilder


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_isolated_vertices(self):
        g = Graph(5)
        assert g.num_vertices == 5
        assert all(g.degree(v) == 0 for v in g.vertices())

    def test_basic_edges(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.num_edges == 2
        assert g.neighbors(1) == (0, 2)
        assert g.neighbors(0) == (1,)

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(-1, 0)])

    def test_negative_num_vertices_rejected(self):
        with pytest.raises(ValueError, match="num_vertices"):
            Graph(-1)

    def test_non_int_vertex_rejected(self):
        with pytest.raises(TypeError):
            Graph(3, [(0, "1")])

    def test_bool_vertex_rejected(self):
        with pytest.raises(TypeError):
            Graph(3, [(0, True)])


class TestAccessors:
    def test_neighbors_sorted(self):
        g = Graph(4, [(3, 0), (2, 0), (1, 0)])
        assert g.neighbors(0) == (1, 2, 3)

    def test_neighbor_set_membership(self):
        g = Graph(3, [(0, 1)])
        assert 1 in g.neighbor_set(0)
        assert 2 not in g.neighbor_set(0)

    def test_degrees(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees() == (3, 1, 1, 1)
        assert g.max_degree() == 3

    def test_max_degree_on_empty(self):
        assert Graph(0).max_degree() == 0

    def test_has_edge_symmetric(self):
        g = Graph(3, [(0, 2)])
        assert g.has_edge(0, 2)
        assert g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    def test_has_edge_rejects_bad_vertex(self):
        g = Graph(3)
        with pytest.raises(ValueError):
            g.has_edge(0, 5)

    def test_edges_canonical_order(self):
        g = Graph(4, [(3, 2), (1, 0), (2, 0)])
        assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]

    def test_len_and_contains(self):
        g = Graph(3)
        assert len(g) == 3
        assert 2 in g
        assert 3 not in g
        assert "a" not in g

    def test_repr(self):
        assert repr(Graph(3, [(0, 1)])) == "Graph(num_vertices=3, num_edges=1)"


class TestDerivedGraphs:
    def test_subgraph_relabels(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub = g.subgraph([1, 2, 3])
        assert sub.num_vertices == 3
        assert list(sub.edges()) == [(0, 1), (1, 2)]

    def test_subgraph_respects_order(self):
        g = Graph(3, [(0, 1)])
        sub = g.subgraph([1, 0])
        assert list(sub.edges()) == [(0, 1)]
        assert sub.num_vertices == 2

    def test_subgraph_duplicate_rejected(self):
        g = Graph(3)
        with pytest.raises(ValueError, match="duplicate"):
            g.subgraph([0, 0])


class TestMatrixView:
    def test_adjacency_matrix(self):
        import numpy as np

        g = Graph(3, [(0, 2)])
        m = g.adjacency_matrix()
        expected = np.zeros((3, 3), dtype=bool)
        expected[0, 2] = expected[2, 0] = True
        assert (m == expected).all()

    def test_adjacency_matrix_symmetric_no_diagonal(self):
        from random import Random

        from repro.graphs.random_graphs import gnp_random_graph

        g = gnp_random_graph(20, 0.3, Random(1))
        m = g.adjacency_matrix()
        assert (m == m.T).all()
        assert not m.diagonal().any()


class TestEqualityAndHash:
    def test_equal_graphs(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])

    def test_unequal_graphs(self):
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])
        assert Graph(3) != Graph(4)

    def test_hashable(self):
        s = {Graph(2, [(0, 1)]), Graph(2, [(1, 0)])}
        assert len(s) == 1

    def test_eq_other_type(self):
        assert Graph(1).__eq__(42) is NotImplemented


class TestGraphBuilder:
    def test_incremental_build(self):
        b = GraphBuilder()
        u, v, w = b.add_vertices(3)
        b.add_edge(u, v)
        b.add_edge(v, w)
        g = b.build()
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_add_edge_idempotent(self):
        b = GraphBuilder(2)
        b.add_edge(0, 1)
        b.add_edge(1, 0)
        assert b.build().num_edges == 1

    def test_add_clique(self):
        b = GraphBuilder(4)
        b.add_clique([0, 1, 2, 3])
        assert b.build().num_edges == 6

    def test_rejects_unknown_vertex(self):
        b = GraphBuilder(1)
        with pytest.raises(ValueError, match="has not been added"):
            b.add_edge(0, 1)

    def test_rejects_self_loop(self):
        b = GraphBuilder(2)
        with pytest.raises(ValueError, match="self-loop"):
            b.add_edge(1, 1)

    def test_rejects_negative_count(self):
        b = GraphBuilder()
        with pytest.raises(ValueError):
            b.add_vertices(-1)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            GraphBuilder(-2)


# ----------------------------------------------------------------------
# The CSR constructor against a frozen copy of the tuple/frozenset one
# ----------------------------------------------------------------------


def _legacy_graph(num_vertices, edges):
    """The set-based construction ``Graph`` used before its CSR storage,
    kept verbatim as the oracle: ``(adjacency, neighbor_sets, num_edges)``."""
    if num_vertices < 0:
        raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
    neighbor_sets = [set() for _ in range(num_vertices)]
    num_edges = 0
    for u, v in edges:
        for w in (u, v):
            if not isinstance(w, int) or isinstance(w, bool):
                raise TypeError(f"vertex must be an int, got {w!r}")
            if not 0 <= w < num_vertices:
                raise ValueError(
                    f"vertex {w} out of range for graph with "
                    f"{num_vertices} vertices"
                )
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        if v not in neighbor_sets[u]:
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
            num_edges += 1
    adjacency = tuple(tuple(sorted(s)) for s in neighbor_sets)
    return adjacency, tuple(frozenset(s) for s in neighbor_sets), num_edges


def _legacy_edges(adjacency):
    return [(u, v) for u, row in enumerate(adjacency) for v in row if u < v]


@st.composite
def edge_lists(draw):
    """``(n, edges)``: dense or sparse, with duplicates, both orientations
    and isolated vertices."""
    n = draw(st.integers(min_value=0, max_value=60))
    if n < 2:
        return n, []
    pair = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=3 * n))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    edges = edges + [(v, u) for u, v in repeats] + repeats
    return n, draw(st.permutations(edges))


def _assert_matches_legacy(g, n, edges):
    adjacency, neighbor_sets, num_edges = _legacy_graph(n, edges)
    assert g.num_vertices == n
    assert g.num_edges == num_edges
    assert tuple(g.neighbors(v) for v in g.vertices()) == adjacency
    assert tuple(g.neighbor_set(v) for v in g.vertices()) == neighbor_sets
    assert list(g.edges()) == _legacy_edges(adjacency)
    assert g.degrees() == tuple(len(row) for row in adjacency)
    assert hash(g) == hash(adjacency)


class TestCsrOracle:
    @settings(max_examples=200, deadline=None)
    @given(edge_lists())
    def test_matches_legacy_construction(self, case):
        n, edges = case
        g = Graph(n, edges)
        _assert_matches_legacy(g, n, edges)
        # The same edge set in any order and orientation is the same graph.
        flipped = Graph(n, [(v, u) for u, v in reversed(edges)])
        assert flipped == g and hash(flipped) == hash(g)
        # An integer array takes the vectorised path to the same graph.
        assert Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2)) == g

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=100, max_value=400),
        st.lists(st.tuples(st.integers(0, 399), st.integers(0, 399)), max_size=40),
    )
    def test_sparse_graphs_match_legacy(self, n, raw):
        # Few edges on many vertices: the sorted-key build, not the
        # dense scatter.
        edges = [(u % n, v % n) for u, v in raw if u % n != v % n]
        edges += edges[:3]
        _assert_matches_legacy(Graph(n, edges), n, edges)

    def test_accessors_return_python_ints(self):
        g = Graph(5, np.array([[0, 1], [1, 2], [3, 1]], dtype=np.int32))
        values = [g.num_vertices, g.num_edges, g.max_degree()]
        values += list(g.degrees()) + [g.degree(v) for v in g.vertices()]
        values += [w for v in g.vertices() for w in g.neighbors(v)]
        values += [w for v in g.vertices() for w in g.neighbor_set(v)]
        values += [w for edge in g.edges() for w in edge]
        assert values and all(type(value) is int for value in values)

    def test_csr_arrays_are_read_only(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.indptr.dtype == np.int32 and g.indices.dtype == np.int32
        assert g.indptr.tolist() == [0, 1, 3, 4]
        assert g.indices.tolist() == [1, 0, 2, 1]
        with pytest.raises(ValueError, match="read-only"):
            g.indptr[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            g.indices[0] = 2

    def test_views_are_built_once(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.neighbors(0) is g.neighbors(0)
        assert g.neighbor_set(1) is g.neighbor_set(1)
        assert g.degrees() is g.degrees()

    def test_pickle_round_trip_keeps_arrays_read_only(self):
        g = Graph(4, [(0, 1), (2, 3)])
        g.neighbors(0)
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g and clone.neighbors(2) == (3,)
        with pytest.raises(ValueError, match="read-only"):
            clone.indices[0] = 3

    @pytest.mark.parametrize(
        "n, edges",
        [
            (3, [(0, True)]),
            (3, [(False, 1)]),
            (3, [(0, 1.0)]),
            (3, [(0, "1")]),
            (3, [(0, None)]),
            (3, [(0, 1), (0, np.int64(2))]),
            (3, [(-1, 0)]),
            (3, [(0, 1), (2, 3)]),
            (3, [(0, 2 ** 70)]),
            (3, [(0, 1), (2, 2)]),
            (3, [(0, 1), (1, 2), (5, 5)]),
            (3, np.array([[0, 1], [1, 1]])),
            (3, np.array([[0, 3]])),
            (3, np.array([[0.0, 1.0]])),
            (3, np.array([[True, False]])),
        ],
    )
    def test_invalid_edges_raise_the_legacy_error(self, n, edges):
        plain = edges.tolist() if isinstance(edges, np.ndarray) else edges
        if isinstance(edges, np.ndarray) and edges.dtype.kind not in "iu":
            plain = edges  # non-integer arrays were always iterated as is
        with pytest.raises((TypeError, ValueError)) as expected:
            _legacy_graph(n, plain)
        with pytest.raises(expected.type) as raised:
            Graph(n, edges)
        assert str(raised.value) == str(expected.value)

    def test_any_iterable_of_pairs_is_accepted(self):
        edges = [(0, 1), (1, 2)]
        assert Graph(3, iter(edges)) == Graph(3, edges)
        assert Graph(3, ([u, v] for u, v in edges)) == Graph(3, edges)
        assert Graph(3, zip([0, 1], [1, 2])) == Graph(3, edges)
        assert Graph(3, {(0, 1), (2, 1)}) == Graph(3, edges)
