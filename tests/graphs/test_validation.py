"""Unit tests for independence/maximality predicates."""

import pytest

from repro.graphs.graph import Graph
from repro.graphs.structured import complete_graph, path_graph, star_graph
from repro.graphs.validation import (
    MISValidationError,
    independent_set_violations,
    is_dominating_for_uncovered,
    is_independent_set,
    is_maximal_independent_set,
    uncovered_vertices,
    verify_mis,
)


class TestIndependence:
    def test_empty_set_is_independent(self, p4):
        assert is_independent_set(p4, [])

    def test_independent_set(self, p4):
        assert is_independent_set(p4, [0, 2])

    def test_dependent_set(self, p4):
        assert not is_independent_set(p4, [0, 1])

    def test_violations_reported_canonically(self):
        g = complete_graph(3)
        assert independent_set_violations(g, [0, 1, 2]) == [
            (0, 1),
            (0, 2),
            (1, 2),
        ]

    def test_unknown_vertex_rejected(self, p4):
        with pytest.raises(ValueError, match="not a vertex"):
            is_independent_set(p4, [99])


class TestMaximality:
    def test_uncovered_vertices(self, p4):
        assert uncovered_vertices(p4, [0]) == [2, 3]

    def test_fully_covered(self, p4):
        assert uncovered_vertices(p4, [0, 2]) == []
        assert is_dominating_for_uncovered(p4, [0, 2])

    def test_mis_detection(self, p4):
        assert is_maximal_independent_set(p4, [0, 2])
        assert is_maximal_independent_set(p4, [1, 3])
        assert is_maximal_independent_set(p4, [0, 3])
        assert not is_maximal_independent_set(p4, [0])       # not maximal
        assert not is_maximal_independent_set(p4, [0, 1, 3])  # not independent

    def test_star_hub_alone_is_mis(self, star10):
        assert is_maximal_independent_set(star10, [0])

    def test_star_all_leaves_is_mis(self, star10):
        assert is_maximal_independent_set(star10, range(1, 11))

    def test_empty_graph_empty_mis(self):
        assert is_maximal_independent_set(Graph(0), [])

    def test_isolated_vertices_must_be_included(self):
        g = Graph(3, [(0, 1)])
        assert not is_maximal_independent_set(g, [0])
        assert is_maximal_independent_set(g, [0, 2])


class TestVerifyMIS:
    def test_accepts_valid(self, c5):
        assert verify_mis(c5, [0, 2]) == {0, 2}

    def test_rejects_dependent(self, c5):
        with pytest.raises(MISValidationError, match="not independent"):
            verify_mis(c5, [0, 1])

    def test_rejects_non_maximal(self, c5):
        with pytest.raises(MISValidationError, match="not maximal"):
            verify_mis(c5, [0])

    def test_error_names_the_violation(self):
        g = path_graph(3)
        with pytest.raises(MISValidationError, match=r"edge \(0, 1\)"):
            verify_mis(g, [0, 1])
        with pytest.raises(MISValidationError, match="vertex 2"):
            verify_mis(g, [0])

    def test_error_is_assertion_subclass(self):
        assert issubclass(MISValidationError, AssertionError)

    def test_complete_graph_singletons(self):
        g = complete_graph(5)
        for v in range(5):
            assert verify_mis(g, [v]) == {v}
        with pytest.raises(MISValidationError):
            verify_mis(g, [0, 1])


class TestBoolVertices:
    """``bool`` is an ``int`` subclass, but never a vertex: membership
    follows the constructor's and ``has_edge``'s rule."""

    def test_bools_are_not_vertices(self, p4):
        assert True not in p4
        assert False not in p4
        assert 1 in p4 and 0 in p4

    def test_verify_mis_rejects_bool_vertices(self, p4):
        with pytest.raises(ValueError, match="not a vertex"):
            verify_mis(p4, [True])
        with pytest.raises(ValueError, match="not a vertex"):
            is_independent_set(p4, [False, 2])
