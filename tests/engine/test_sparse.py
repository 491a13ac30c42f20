"""Tests for the fleet's sparse (CSR) backend, including exact equivalence
with the dense backend — both consume the same numpy random stream in the
same order, so identical seeds must give identical runs."""

from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.fleet import FleetSimulator
from repro.engine.rules import FeedbackRule, SweepRule
from repro.engine.sparse import build_csr, csr_row_counts
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph, random_geometric_graph
from repro.graphs.structured import empty_graph, grid_graph, star_graph

from .conftest import engine_run


def one_trial(graph, rule_factory, seed, backend="sparse", **kwargs):
    """One seeded trial on one fleet backend, as an ``EngineRun``."""
    return engine_run(f"fleet-{backend}", graph, rule_factory, seed, **kwargs)


class TestBasics:
    def test_empty_graph(self):
        run = one_trial(empty_graph(0), FeedbackRule, 1)
        assert run.rounds == 0
        assert run.mis == set()

    def test_isolated_vertices(self):
        run = one_trial(empty_graph(5), FeedbackRule, 2, validate=True)
        assert run.mis == set(range(5))

    def test_mixed_isolated_and_connected(self):
        graph = Graph(5, [(1, 2), (2, 3)])
        run = one_trial(graph, FeedbackRule, 3, validate=True)
        assert 0 in run.mis
        assert 4 in run.mis

    def test_trailing_isolated_vertices(self):
        # Regression guard for the reduceat boundaries: isolated vertices
        # at the END of the index range have empty trailing CSR segments.
        graph = Graph(6, [(0, 1)])
        run = one_trial(graph, FeedbackRule, 4, validate=True)
        assert {2, 3, 4, 5} <= run.mis

    def test_trailing_isolated_vertices_do_not_truncate_hearing(self):
        # A clamped trailing start used to cut the last non-empty CSR
        # segment short, dropping beeps from a vertex's highest-index
        # neighbours (sparse run then disagreed with dense on rounds).
        # Vertex 2's CSR segment [2, 4) is the last one; vertex 3 is a
        # trailing isolated vertex whose start the old clamp pulled back
        # to 3, cutting neighbour 1 out of vertex 2's segment.
        graph = Graph(4, [(2, 0), (2, 1)])
        only_1 = np.array([[False, True, False, False]])
        counts = csr_row_counts(only_1, *build_csr(graph))
        assert list(counts[0] > 0) == [False, False, True, False]
        heard = FleetSimulator(graph, backend="sparse")._neighbor_or(only_1)
        assert list(heard[0]) == [False, False, True, False]

    def test_star(self):
        run = one_trial(star_graph(20), FeedbackRule, 5, validate=True)
        assert run.rounds >= 1

    def test_max_rounds_validation(self):
        with pytest.raises(ValueError):
            FleetSimulator(empty_graph(1), max_rounds=0, backend="sparse")


class TestExactEquivalenceWithDense:
    @pytest.mark.parametrize("seed", range(5))
    def test_identical_runs_random_graph(self, seed):
        graph = gnp_random_graph(40, 0.2, Random(seed))
        dense = one_trial(graph, FeedbackRule, 100 + seed, backend="dense")
        sparse = one_trial(graph, FeedbackRule, 100 + seed)
        assert dense.mis == sparse.mis
        assert dense.rounds == sparse.rounds
        assert np.array_equal(dense.beeps_by_node, sparse.beeps_by_node)

    def test_identical_runs_sweep(self):
        graph = gnp_random_graph(30, 0.3, Random(9))
        dense = one_trial(graph, SweepRule, 7, backend="dense")
        sparse = one_trial(graph, SweepRule, 7)
        assert dense.mis == sparse.mis
        assert dense.rounds == sparse.rounds

    def test_identical_runs_grid(self):
        graph = grid_graph(8, 8)
        dense = one_trial(graph, FeedbackRule, 11, backend="dense")
        sparse = one_trial(graph, FeedbackRule, 11)
        assert dense.mis == sparse.mis


class TestScale:
    def test_large_sparse_network(self):
        """The backend's reason to exist: n = 5000 sensor network."""
        graph = random_geometric_graph(5000, 0.025, Random(13))
        run = one_trial(graph, FeedbackRule, 14, validate=True)
        assert run.rounds < 60
        assert run.mean_beeps_per_node < 3.0


@given(
    n=st.integers(min_value=1, max_value=30),
    p=st.floats(min_value=0.0, max_value=0.5),
    graph_seed=st.integers(min_value=0, max_value=2**32 - 1),
    run_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_property_sparse_matches_dense(n, p, graph_seed, run_seed):
    graph = gnp_random_graph(n, p, Random(graph_seed))
    dense = one_trial(graph, FeedbackRule, run_seed, backend="dense",
                      max_rounds=50_000)
    sparse = one_trial(graph, FeedbackRule, run_seed, max_rounds=50_000)
    assert dense.mis == sparse.mis
    assert dense.rounds == sparse.rounds
