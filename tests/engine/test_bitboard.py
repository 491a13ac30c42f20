"""Property tests for the bit-packed ``uint64`` bitboard kernels.

The bitboard backend (:mod:`repro.engine.bitboard`) replaces the fleet
engine's float32 GEMM with AND + popcount over packed adjacency rows.
The conformance suite already pins whole runs bit-for-bit against the
dense and sparse engines; this file attacks the primitives directly:

- pack/unpack is a lossless round trip on arbitrary boolean rows, and
  the trailing lane's bits at and above ``n`` are always zero (the tail
  mask the OR/popcount kernels silently rely on);
- ``neighbor_counts`` equals the float32 GEMM counts and ``neighbor_or``
  the GEMM OR on random adjacencies — including graphs with isolated and
  trailing unconnected vertices, the shapes that broke the PR-2 CSR
  ``reduceat`` segmentation;
- ``packed_or_test`` (the armada frontier's test on stacked per-graph
  packed adjacencies, packed in one ``pack_neighbor_lists`` call as the
  armada does) agrees with the brute-force definition on random entry
  lists over 1-3 graphs with ragged slot rows;
- a small counter-mode fleet ticks the backend counter and transitions
  to the entry-level frontier once; stream and beep-recording runs never
  do.
"""

from __future__ import annotations

from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beeping.rng import derive_seed_block
from repro.engine.bitboard import (
    BitboardKernel,
    LANE_BITS,
    lane_count,
    pack_adjacency,
    pack_bits,
    pack_neighbor_lists,
    packed_or_test,
    popcount,
    unpack_bits,
)
from repro.engine.fleet import FleetSimulator
from repro.engine.sparse import build_csr
from repro.engine.rules import FeedbackRule
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import empty_graph, star_graph
from repro.telemetry.probes import capture


def random_flags(rows: int, n: int, seed: int, density: float) -> np.ndarray:
    """A deterministic ``(rows, n)`` boolean matrix of given density."""
    rng = np.random.default_rng(seed)
    return rng.random((rows, n)) < density


def gemm_counts(graph: Graph, flags: np.ndarray) -> np.ndarray:
    """Reference neighbour counts via the dense engines' GEMM."""
    adjacency = graph.adjacency_matrix().astype(np.float32)
    return (flags.astype(np.float32) @ adjacency).astype(np.int64)


def graph_with_tail(n: int, p: float, isolated: int, seed: int) -> Graph:
    """``G(n, p)`` followed by ``isolated`` trailing edgeless vertices.

    Trailing unconnected vertices are the regression shape from the PR-2
    CSR bug: segment-reduction kernels that key segments off the *present*
    rows silently drop them.
    """
    core = gnp_random_graph(n, p, Random(seed))
    return Graph(n + isolated, core.edges())


class TestPackUnpack:
    """pack_bits/unpack_bits: lossless, little-endian, tail-masked."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        rows=st.integers(min_value=1, max_value=8),
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31),
        density=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_round_trip_on_random_masks(self, rows, n, seed, density):
        flags = random_flags(rows, n, seed, density)
        packed = pack_bits(flags)
        assert packed.dtype == np.uint64
        assert packed.shape == (rows, lane_count(n))
        assert np.array_equal(unpack_bits(packed, n), flags)

    @pytest.mark.parametrize(
        "n", (1, 63, 64, 65, 127, 128, 129, 191),
        ids=lambda n: f"n={n} (n%64={n % LANE_BITS})",
    )
    def test_tail_lane_bits_above_n_are_zero(self, n):
        """All-ones rows leave bits >= n clear in the trailing lane, for
        every tail-remainder class the ISSUE calls out (0, 1, 63)."""
        packed = pack_bits(np.ones((3, n), dtype=bool))
        tail = n % LANE_BITS
        if tail:
            assert np.all(packed[:, -1] >> np.uint64(tail) == 0)
            assert np.all(
                packed[:, -1] == (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
            )
        else:
            assert np.all(packed[:, -1] == np.uint64(0xFFFFFFFFFFFFFFFF))
        assert np.array_equal(unpack_bits(packed, n), np.ones((3, n), bool))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31),
        density=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_popcount_preserves_totals(self, n, seed, density):
        flags = random_flags(4, n, seed, density)
        lane_totals = popcount(pack_bits(flags)).sum(axis=-1, dtype=np.int64)
        assert np.array_equal(lane_totals, flags.sum(axis=-1))

    def test_bit_layout_is_little_endian(self):
        """Flag ``v`` is bit ``v % 64`` of lane ``v // 64`` — the layout
        pack_adjacency and packed_or_test address directly."""
        flags = np.zeros((1, 130), dtype=bool)
        flags[0, [0, 7, 64, 129]] = True
        packed = pack_bits(flags)
        assert packed[0, 0] == np.uint64((1 << 0) | (1 << 7))
        assert packed[0, 1] == np.uint64(1 << 0)
        assert packed[0, 2] == np.uint64(1 << (129 - 128))


class TestKernelsMatchGemm:
    """AND + popcount agrees with the float32 GEMM, bit for bit."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=1, max_value=120),
        p=st.floats(min_value=0.0, max_value=1.0),
        isolated=st.integers(min_value=0, max_value=5),
        graph_seed=st.integers(min_value=0, max_value=2**31),
        flag_seed=st.integers(min_value=0, max_value=2**31),
        density=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_neighbor_counts_match_gemm(
        self, n, p, isolated, graph_seed, flag_seed, density
    ):
        graph = graph_with_tail(n, p, isolated, graph_seed)
        kernel = BitboardKernel(pack_adjacency(graph))
        flags = random_flags(5, graph.num_vertices, flag_seed, density)
        assert np.array_equal(
            kernel.neighbor_counts(flags), gemm_counts(graph, flags)
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=1, max_value=120),
        p=st.floats(min_value=0.0, max_value=1.0),
        isolated=st.integers(min_value=0, max_value=5),
        graph_seed=st.integers(min_value=0, max_value=2**31),
        flag_seed=st.integers(min_value=0, max_value=2**31),
        # Spans the gather/broadcast switch: the sparse end exercises the
        # reduceat fold, the dense end the chunked broadcast.
        density=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_neighbor_or_matches_gemm(
        self, n, p, isolated, graph_seed, flag_seed, density
    ):
        graph = graph_with_tail(n, p, isolated, graph_seed)
        kernel = BitboardKernel(pack_adjacency(graph))
        flags = random_flags(5, graph.num_vertices, flag_seed, density)
        assert np.array_equal(
            kernel.neighbor_or(flags), gemm_counts(graph, flags) > 0
        )

    def test_gather_and_broadcast_paths_agree(self):
        """Both neighbor_or code paths on the same input, explicitly."""
        graph = gnp_random_graph(90, 0.2, Random(11))
        kernel = BitboardKernel(pack_adjacency(graph))
        flags = random_flags(6, 90, 12, 0.5)
        assert np.array_equal(
            kernel.neighbor_or(flags), kernel._broadcast_or(flags)
        )

    @pytest.mark.parametrize(
        "graph",
        (
            empty_graph(7),
            Graph(5, [(0, 1)]),
            Graph(67, [(0, 66)]),
            star_graph(9),
        ),
        ids=("all-isolated", "trailing-isolated", "cross-lane-edge", "star"),
    )
    def test_isolated_and_trailing_vertices(self, graph):
        """The PR-2 regression shapes: rows with no neighbours must stay
        all-zero instead of inheriting the previous segment's fold."""
        kernel = BitboardKernel(pack_adjacency(graph))
        n = graph.num_vertices
        everyone = np.ones((2, n), dtype=bool)
        assert np.array_equal(
            kernel.neighbor_counts(everyone), gemm_counts(graph, everyone)
        )
        assert np.array_equal(
            kernel.neighbor_or(everyone), gemm_counts(graph, everyone) > 0
        )
        lone = np.zeros((3, n), dtype=bool)
        lone[1, n - 1] = True
        assert np.array_equal(
            kernel.neighbor_or(lone), gemm_counts(graph, lone) > 0
        )

    def test_empty_shapes(self):
        kernel = BitboardKernel(pack_adjacency(empty_graph(0)))
        assert kernel.neighbor_or(np.zeros((4, 0), bool)).shape == (4, 0)
        assert kernel.neighbor_counts(np.zeros((4, 0), bool)).shape == (4, 0)
        kernel = BitboardKernel(pack_adjacency(star_graph(3)))
        assert kernel.neighbor_or(np.zeros((0, 4), bool)).shape == (0, 4)

    def test_packed_adjacency_matches_matrix(self):
        graph = gnp_random_graph(130, 0.15, Random(7))
        packed = pack_adjacency(graph)
        assert np.array_equal(
            unpack_bits(packed, 130),
            graph.adjacency_matrix().astype(bool),
        )


class TestPackedOrTest:
    """The armada frontier's stacked packed test vs. brute force."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=1, max_value=100),
        p=st.floats(min_value=0.0, max_value=0.6),
        graph_seed=st.integers(min_value=0, max_value=2**31),
        entry_seed=st.integers(min_value=0, max_value=2**31),
        # Ragged seed rows: one slot-row count per stacked graph.
        sizes=st.lists(
            st.integers(min_value=1, max_value=4), min_size=1, max_size=3
        ),
        source_density=st.floats(min_value=0.0, max_value=0.4),
        query_density=st.floats(min_value=0.0, max_value=0.6),
    )
    def test_matches_brute_force(
        self, n, p, graph_seed, entry_seed, sizes,
        source_density, query_density,
    ):
        graphs = [
            gnp_random_graph(n, p, Random(graph_seed + g))
            for g in range(len(sizes))
        ]
        # Packed the way the armada packs its block-diagonal union: one
        # pack_neighbor_lists call over the concatenated CSR lists.
        csrs = [build_csr(g) for g in graphs]
        degrees = [np.diff(np.append(s, c.size)) for c, s, _ in csrs]
        stacked = pack_neighbor_lists(
            np.concatenate(degrees),
            np.concatenate([c for c, _, _ in csrs]),
            n,
        )
        slot_graph = np.repeat(np.arange(len(sizes)), sizes)
        slots = slot_graph.size
        source = random_flags(slots, n, entry_seed, source_density)
        query = random_flags(slots, n, entry_seed + 1, query_density)
        source_rows, source_cols = np.nonzero(source)
        query_rows, query_cols = np.nonzero(query)
        got = packed_or_test(
            stacked, source_rows, slot_graph[source_rows] * n + source_cols,
            query_rows, query_cols, slots,
        )
        adjacency = [g.adjacency_matrix().astype(bool) for g in graphs]
        expected = np.array(
            [
                bool(np.any(source[r] & adjacency[slot_graph[r]][c]))
                for r, c in zip(query_rows, query_cols)
            ],
            dtype=bool,
        )
        assert np.array_equal(got, expected)

    def test_empty_entry_lists(self):
        packed = pack_adjacency(star_graph(4))
        empty = np.array([], dtype=np.int64)
        some = np.array([0], dtype=np.int64)
        hits = packed_or_test(packed, empty, empty, some, some, 2)
        assert hits.tolist() == [False]
        assert packed_or_test(packed, some, some, empty, empty, 2).size == 0


class TestFrontierTelemetry:
    """Which runs hand their tail to the armada's entry-level frontier."""

    def _run(self, **kwargs):
        graph = gnp_random_graph(30, 0.3, Random(9))
        simulator = FleetSimulator(graph, backend="bitboard")
        seeds = derive_seed_block(404, 0, 1, count=4)
        with capture() as collector:
            simulator.run_fleet(FeedbackRule(), seeds, **kwargs)
        assert collector.counters["engine.backend.bitboard"] == 1
        assert collector.counters["engine.armada.runs"] == 1
        assert collector.counters["engine.armada.trials"] == 4
        return collector

    def test_counter_fleet_transitions_once(self):
        collector = self._run(rng_mode="counter")
        # 4 trials x 30 vertices fits the frontier budget immediately, so
        # the run must hand over to the entry-level tail exactly once.
        assert collector.counters["engine.armada.frontier_transitions"] == 1
        assert collector.gauges["engine.armada.frontier_entries"] > 0

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"rng_mode": "stream"},
            {"rng_mode": "counter", "record_beeps": True},
        ),
        ids=("stream", "record-beeps"),
    )
    def test_full_width_runs_never_transition(self, kwargs):
        """Stream generators must keep emitting full rows, and beep
        frames need the whole tensor: neither may reach the frontier."""
        collector = self._run(**kwargs)
        assert "engine.armada.frontier_transitions" not in collector.counters
