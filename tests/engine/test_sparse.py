"""Tests for the fleet's sparse (CSR) backend, including exact equivalence
with the dense backend — both consume the same numpy random stream in the
same order, so identical seeds must give identical runs."""

import math
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import sparse
from repro.engine.fleet import FleetSimulator
from repro.engine.rules import FeedbackRule, SweepRule
from repro.engine.sparse import (
    KEY_SENTINEL,
    NeighbourOperand,
    build_csr,
    csr_row_counts,
    csr_row_or,
    csr_to_dense,
    padded_csr,
)
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph, random_geometric_graph
from repro.graphs.structured import empty_graph, grid_graph, star_graph

from .conftest import engine_run


def counts_or(flags, gather, starts, isolated):
    """The neighbour OR as the count kernel computes it."""
    return csr_row_counts(flags, gather, starts, isolated) > 0


def kernel_csr(graph):
    """The reduction kernels' operand for ``graph``."""
    return padded_csr(build_csr(graph))


def one_trial(graph, rule_factory, seed, backend="sparse", **kwargs):
    """One seeded trial on one fleet backend, as an ``EngineRun``."""
    return engine_run(f"fleet-{backend}", graph, rule_factory, seed, **kwargs)


class TestBasics:
    def test_empty_graph(self):
        run = one_trial(empty_graph(0), FeedbackRule, 1)
        assert run.rounds == 0
        assert run.mis == set()

    def test_isolated_vertices(self):
        run = one_trial(empty_graph(5), FeedbackRule, 2)
        assert run.mis == set(range(5))

    def test_mixed_isolated_and_connected(self):
        graph = Graph(5, [(1, 2), (2, 3)])
        run = one_trial(graph, FeedbackRule, 3)
        assert 0 in run.mis
        assert 4 in run.mis

    def test_trailing_isolated_vertices(self):
        # Regression guard for the reduceat boundaries: isolated vertices
        # at the END of the index range have empty trailing CSR segments.
        graph = Graph(6, [(0, 1)])
        run = one_trial(graph, FeedbackRule, 4)
        assert {2, 3, 4, 5} <= run.mis

    @pytest.mark.parametrize(
        "heard_of", (counts_or, csr_row_or), ids=("counts", "packed-or")
    )
    def test_trailing_isolated_vertices_do_not_truncate_hearing(
        self, heard_of
    ):
        # A clamped trailing start used to cut the last non-empty CSR
        # segment short, dropping beeps from a vertex's highest-index
        # neighbours (sparse run then disagreed with dense on rounds).
        # Vertex 2's CSR segment [2, 4) is the last one; vertex 3 is a
        # trailing isolated vertex whose start the old clamp pulled back
        # to 3, cutting neighbour 1 out of vertex 2's segment.
        graph = Graph(4, [(2, 0), (2, 1)])
        only_1 = np.array([[False, True, False, False]])
        heard = heard_of(only_1, *kernel_csr(graph))
        assert list(heard[0]) == [False, False, True, False]

    def test_star(self):
        run = one_trial(star_graph(20), FeedbackRule, 5)
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


#: Slot counts around the packed OR's byte and uint64 word boundaries,
#: and its unpacked one-row path.
WORD_BOUNDARY_SLOTS = (0, 1, 2, 8, 9, 63, 64, 65, 128, 129)


@st.composite
def oracle_graphs(draw):
    """Graphs for the OR oracle: n in {0, 1}, edgeless, stars, G(n, p)
    (isolated vertices included, trailing ones too) and grids."""
    kind = draw(st.sampled_from(("tiny", "edgeless", "star", "gnp", "grid")))
    if kind == "tiny":
        return empty_graph(draw(st.integers(min_value=0, max_value=1)))
    if kind == "edgeless":
        return empty_graph(draw(st.integers(min_value=2, max_value=40)))
    if kind == "star":
        return star_graph(draw(st.integers(min_value=1, max_value=40)))
    if kind == "grid":
        return grid_graph(
            draw(st.integers(min_value=1, max_value=8)),
            draw(st.integers(min_value=1, max_value=8)),
        )
    return gnp_random_graph(
        draw(st.integers(min_value=2, max_value=60)),
        draw(st.floats(min_value=0.0, max_value=0.5)),
        Random(draw(st.integers(min_value=0, max_value=2**32 - 1))),
    )


#: Three same-``n`` graph stacks for the operand oracle: n = 0 and 1,
#: isolated and trailing-isolated vertices, an edgeless graph, G(n, p)
#: with isolated vertices, and a grid beside a star.
OPERAND_STACKS = {
    "n0": [empty_graph(0)] * 3,
    "n1": [empty_graph(1)] * 3,
    "trailing-isolated": [
        Graph(7, [(0, 1), (1, 2)]),
        Graph(7, [(2, 0), (2, 1), (5, 3)]),
        empty_graph(7),
    ],
    "gnp": [gnp_random_graph(30, 0.08, Random(seed)) for seed in range(3)],
    "grid-star": [grid_graph(5, 6), star_graph(29), grid_graph(6, 5)],
}

#: Ragged per-graph row counts of the operand oracle's slot rows.
OPERAND_SIZES = (5, 4, 4)

#: Vertex counts of the dense push/pull oracle: n = 0, byte and uint64
#: word edges, and a count that is not a multiple of 8.
DENSE_OR_VERTICES = (0, 1, 13, 63, 64, 65, 130)

#: Row groups of the dense push/pull oracle: equal, ragged, and ragged
#: with an empty first or middle graph.
DENSE_OR_SIZES = ((3, 3, 3), (5, 4, 2), (0, 6, 3), (4, 0, 5))


class TestPackedOrOracle:
    """``csr_row_or`` is the count kernel's ``> 0``, across word edges,
    the count kernel is the dense adjacency product, and the neighbour
    operand's three reductions equal the adjacency-matrix reference on
    both backends."""

    @pytest.mark.parametrize("backend", ("dense", "sparse"))
    @pytest.mark.parametrize("stack", sorted(OPERAND_STACKS))
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        density=st.sampled_from((0.0, 0.3, 1.0)),
        live_all=st.booleans(),
        flag_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_operand_matches_adjacency_matrix(
        self, backend, stack, density, live_all, flag_seed
    ):
        graphs = OPERAND_STACKS[stack]
        n = graphs[0].num_vertices
        operand = NeighbourOperand(graphs, backend)
        assert operand.backend == backend
        rng = np.random.default_rng(flag_seed)
        slot_graph = np.repeat(np.arange(3), OPERAND_SIZES)
        # Every slot row, or a live subset (a graph may keep no rows).
        live = np.flatnonzero(
            np.ones(slot_graph.size, dtype=bool)
            if live_all
            else rng.random(slot_graph.size) < 0.5
        )
        sizes = np.bincount(slot_graph[live], minlength=3)
        flags = rng.random((live.size, n)) < density
        mask = rng.random((live.size, n)) < density
        keys = rng.integers(
            0, 2**64, size=(live.size, n), dtype=np.uint64
        )
        adjacency = [graph.adjacency_matrix() for graph in graphs]
        expected_counts = np.zeros((live.size, n), dtype=np.int64)
        expected_min = np.full((live.size, n), KEY_SENTINEL, dtype=np.uint64)
        for row, g in enumerate(slot_graph[live]):
            expected_counts[row] = flags[row].astype(np.int64) @ adjacency[g]
            for v in range(n):
                heard = adjacency[g][:, v] & mask[row]
                if heard.any():
                    expected_min[row, v] = keys[row, heard].min()
        counts = operand.counts(flags, sizes)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected_counts)
        heard = operand.any(flags, sizes)
        assert heard.dtype == bool
        assert np.array_equal(heard, expected_counts > 0)
        out = np.ones((live.size, n), dtype=bool)
        assert operand.any(flags, sizes, out=out) is out
        assert np.array_equal(out, expected_counts > 0)
        minima = operand.masked_min(keys, mask, sizes)
        assert minima.dtype == np.uint64
        assert np.array_equal(minima, expected_min)

    @pytest.mark.parametrize("backend", ("dense", "sparse"))
    @pytest.mark.parametrize("stack", ("trailing-isolated", "grid-star"))
    def test_operand_hands_out_read_only_csrs(self, backend, stack):
        graphs = OPERAND_STACKS[stack]
        operand = NeighbourOperand(graphs, backend)
        assert len(operand.csrs) == len(graphs)
        for graph, csr in zip(graphs, operand.csrs):
            for array, expected in zip(csr, build_csr(graph)):
                assert np.array_equal(array, expected)
                assert array.dtype == expected.dtype
                assert not array.flags.writeable
            if csr[0].size:
                assert np.shares_memory(csr[0], operand.columns)
        assert np.array_equal(
            operand.columns, np.concatenate([csr[0] for csr in operand.csrs])
        )
        assert not operand.columns.flags.writeable

    @pytest.mark.parametrize("direction", ("push", "pull"))
    @pytest.mark.parametrize("n", DENSE_OR_VERTICES)
    @pytest.mark.parametrize("edges", ("gnp", "edgeless"))
    @pytest.mark.parametrize("sizes", DENSE_OR_SIZES)
    def test_dense_or_matches_adjacency_matrix_either_direction(
        self, monkeypatch, direction, n, edges, sizes
    ):
        """The dense OR forced to push, then to pull, by its fixed-cost
        constant: both equal the adjacency-matrix reference on ragged row
        groups (a graph may keep no rows), on all-zero rows (trailing ones
        end on the gather's pad row), on one-beeper and full rows, at n
        across byte and uint64 word edges, and on edgeless stacks."""
        monkeypatch.setattr(
            sparse, "_PUSH_FIXED_NS",
            -math.inf if direction == "push" else math.inf,
        )
        pushed = []
        push = NeighbourOperand._push
        monkeypatch.setattr(
            NeighbourOperand, "_push",
            lambda self, *args: pushed.append(1) or push(self, *args),
        )
        graphs = [
            gnp_random_graph(n, 0.3, Random(seed)) if edges == "gnp"
            else empty_graph(n)
            for seed in range(3)
        ]
        operand = NeighbourOperand(graphs, "dense")
        slot_graph = np.repeat(np.arange(3), sizes)
        rng = np.random.default_rng(n)
        # Row r holds a share r % 5 / 4 of flags, so zero rows and full
        # rows interleave, and the last row is all zero.
        density = (np.arange(slot_graph.size) % 5) / 4.0
        density[-1:] = 0.0
        flags = rng.random((slot_graph.size, n)) < density[:, None]
        flags[1, :] = False
        flags[1, : min(n, 1)] = True  # one beeper
        adjacency = [graph.adjacency_matrix() for graph in graphs]
        expected = np.zeros(flags.shape, dtype=bool)
        for row, g in enumerate(slot_graph):
            expected[row] = flags[row].astype(np.int64) @ adjacency[g] > 0
        heard = operand.any(flags, sizes)
        assert heard.dtype == bool
        assert np.array_equal(heard, expected)
        out = np.ones(flags.shape, dtype=bool)
        assert operand.any(flags, sizes, out=out) is out
        assert np.array_equal(out, expected)
        # The flags may be their own out: both directions read every
        # flag before writing.
        alias = flags.copy()
        assert operand.any(alias, sizes, out=alias) is alias
        assert np.array_equal(alias, expected)
        assert bool(pushed) == (direction == "push" and flags.size > 0)

    def test_dense_or_switch_depends_on_n_and_beepers(self):
        """Below n of about 200 the GEMM wins whatever the beepers; at
        n = 1000 push wins a thinned-out round and loses a full one."""
        for n in (10, 50, 100):
            for rows in (1, 8, 32):
                assert not sparse._pushes(np.zeros((rows, n), bool), rows)
        thinned = np.zeros((32, 1000), dtype=bool)
        thinned[:, :62] = True
        assert sparse._pushes(thinned, 32)
        assert not sparse._pushes(np.ones((32, 1000), dtype=bool), 32)

    @pytest.mark.parametrize("beepers_per_row", (4, 250))
    def test_dense_or_unpatched_switch_either_side(self, beepers_per_row):
        """At n = 300 with 24 rows the unpatched switch pushes 4 beepers
        a row and pulls 250; either way the OR is the reference's."""
        graphs = [gnp_random_graph(300, 0.5, Random(seed)) for seed in (1, 2)]
        sizes = (16, 8)
        operand = NeighbourOperand(graphs, "dense")
        rng = np.random.default_rng(beepers_per_row)
        flags = rng.random((24, 300)) < beepers_per_row / 300
        assert sparse._pushes(flags, 2 * 16) == (beepers_per_row < 100)
        adjacency = [graph.adjacency_matrix() for graph in graphs]
        slot_graph = np.repeat(np.arange(2), sizes)
        expected = np.stack([
            flags[row].astype(np.int64) @ adjacency[g] > 0
            for row, g in enumerate(slot_graph)
        ])
        assert np.array_equal(operand.any(flags, sizes), expected)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        graph=oracle_graphs(),
        k=st.sampled_from(WORD_BOUNDARY_SLOTS),
        density=st.sampled_from((0.0, 0.05, 0.5, 1.0)),
        flag_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_count_kernel(self, graph, k, density, flag_seed):
        rng = np.random.default_rng(flag_seed)
        flags = rng.random((k, graph.num_vertices)) < density
        csr = kernel_csr(graph)
        heard = csr_row_or(flags, *csr)
        assert heard.dtype == bool
        assert heard.shape == flags.shape
        assert np.array_equal(heard, counts_or(flags, *csr))
        adjacency = csr_to_dense(
            *build_csr(graph)[:2],
            np.zeros((graph.num_vertices,) * 2, dtype=np.int64),
        )
        assert np.array_equal(
            csr_row_counts(flags, *csr), flags.astype(np.int64) @ adjacency
        )

    @pytest.mark.parametrize("k", WORD_BOUNDARY_SLOTS[1:])
    def test_each_lane_hears_alone(self, k):
        """One flagged row per slot, each a different path vertex: every
        lane (the last bit of a word and the first of the next included)
        hears exactly its own vertex's neighbours."""
        graph = grid_graph(1, 2 * k)
        flags = np.zeros((k, 2 * k), dtype=bool)
        flags[np.arange(k), 2 * np.arange(k)] = True
        expected = np.zeros_like(flags)
        expected[np.arange(k), 2 * np.arange(k) + 1] = True
        expected[np.arange(1, k), 2 * np.arange(1, k) - 1] = True
        assert np.array_equal(csr_row_or(flags, *kernel_csr(graph)), expected)


class TestScale:
    def test_large_sparse_network(self):
        """The backend's reason to exist: n = 5000 sensor network."""
        graph = random_geometric_graph(5000, 0.025, Random(13))
        run = one_trial(graph, FeedbackRule, 14)
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
