"""Bit-packed uint64 bitboard backend for the lockstep engines.

The dense backend spends a float32 cell per ``(node, neighbour)`` flag:
the n=1000 adjacency alone is ~4 MB and every round's neighbour-OR is a
full GEMM against it.  This module packs the same booleans into
``uint64`` *lanes* — 64 flags per word, ``ceil(n / 64)`` words per row —
so a flag tensor is 64x smaller and the OR observation becomes bitwise
AND/OR over packed adjacency rows instead of floating-point multiply-add:

- ``neighbor_or``: for sparse flag rounds, gather the packed adjacency
  rows of the set bits and fold each trial's segment with one
  ``bitwise_or.reduceat`` pass; for dense rounds, one chunked broadcast
  AND + lane-OR whose cost is ``trials * n * lanes`` words regardless of
  how many bits are set.
- ``neighbor_counts`` (the fault path): chunked
  ``popcount(flags & adjacency)`` summed over lanes — exact integer
  counts, bit-equal to the float32 GEMM and CSR counts.
- :func:`packed_or_test` (the frontier phase): fold the beeping entries'
  rows of the *stacked* per-graph packed adjacencies per slot row, then
  test single bits at the surviving entries.

The backend supplies those reductions and nothing else: the round loop
is the armada's (:meth:`repro.engine.fleet.ArmadaSimulator._lockstep`),
shared with the dense and sparse backends.

``tests/engine/test_bitboard.py`` pins the packing primitives
(round-trip, tail-lane masking, popcount-vs-GEMM equality, the stacked
test against brute force) and ``tests/engine/test_conformance.py`` holds
the backend to the bit-reproducibility contract across both rng modes
and all fault models.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph

#: Flags per packed word.
LANE_BITS = 64

#: Vertices per broadcast chunk of the dense neighbour kernels; 256
#: keeps the ``(trials, chunk, lanes)`` intermediate cache-resident.
_CHUNK_VERTICES = 256

#: ``neighbor_or`` switches from the gather/reduceat path to the
#: broadcast path when more than one flag in ``_DENSE_FRACTION`` is set:
#: gather cost grows with the set-bit count, broadcast cost is flat.
_DENSE_FRACTION = 4


def lane_count(n: int) -> int:
    """Packed words per row of ``n`` flags (``ceil(n / 64)``)."""
    return (n + LANE_BITS - 1) // LANE_BITS


def pack_bits(flags: np.ndarray) -> np.ndarray:
    """Boolean rows packed little-endian into ``uint64`` lanes.

    Bit ``v % 64`` of lane ``v // 64`` is flag ``v``; bits at and above
    ``n`` in the trailing lane are zero (``packbits`` pads with zeros, so
    the tail mask holds by construction).
    """
    n = flags.shape[-1]
    lanes = lane_count(n)
    packed = np.packbits(
        np.ascontiguousarray(flags), axis=-1, bitorder="little"
    )
    if packed.shape[-1] != lanes * 8:
        padded = np.zeros(flags.shape[:-1] + (lanes * 8,), dtype=np.uint8)
        padded[..., : packed.shape[-1]] = packed
        packed = padded
    return np.ascontiguousarray(packed).view("<u8")


def unpack_bits(packed: np.ndarray, n: int) -> np.ndarray:
    """The boolean rows a :func:`pack_bits` result encodes."""
    flat = np.unpackbits(
        packed.view(np.uint8), axis=-1, bitorder="little", count=n
    )
    return flat.astype(bool)


if hasattr(np, "bitwise_count"):

    def popcount(lanes: np.ndarray) -> np.ndarray:
        """Set bits per ``uint64`` word (``uint8``, vectorised)."""
        return np.bitwise_count(lanes)

else:  # pragma: no cover - exercised only on numpy < 2.0
    _POPCOUNT_BYTE = np.array(
        [bin(value).count("1") for value in range(256)], dtype=np.uint8
    )

    def popcount(lanes: np.ndarray) -> np.ndarray:
        """Set bits per ``uint64`` word (``uint8``, byte-table fallback)."""
        per_byte = _POPCOUNT_BYTE[lanes.view(np.uint8)]
        return per_byte.reshape(lanes.shape + (8,)).sum(
            axis=-1, dtype=np.uint8
        )


def pack_adjacency(graph: Graph) -> np.ndarray:
    """The graph's adjacency as ``(n, lanes)`` packed ``uint64`` rows.

    Built from the CSR neighbour lists (no dense boolean intermediate),
    so packing a large sparse graph costs its edges, not ``n**2``.
    """
    from repro.engine.sparse import build_csr

    columns, starts, _isolated = build_csr(graph)
    degrees = np.diff(np.append(starts, columns.size))
    return pack_neighbor_lists(degrees, columns, graph.num_vertices)


def pack_neighbor_lists(
    degrees: np.ndarray, columns: np.ndarray, n: int
) -> np.ndarray:
    """Concatenated neighbour lists as ``(degrees.size, lanes)`` packed rows.

    Row ``i`` sets the bits of the next ``degrees[i]`` entries of
    ``columns`` (sorted vertex ids below ``n``).  Rows may outnumber
    ``n``: the armada packs its block-diagonal union in one call.  The
    lists are sorted and concatenated in row order, so the ``(row,
    lane)`` keys are nondecreasing and one ``bitwise_or.reduceat`` folds
    every lane's bits in a single pass.
    """
    lanes = lane_count(n)
    packed = np.zeros((degrees.size, lanes), dtype=np.uint64)
    if columns.size == 0:
        return packed
    rows = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    keys = rows * lanes + (columns >> 6)
    bits = np.uint64(1) << (columns & 63).astype(np.uint64)
    run_starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
    folded = np.bitwise_or.reduceat(bits, run_starts)
    packed.reshape(-1)[keys[run_starts]] = folded
    return packed


class BitboardKernel:
    """Packed-adjacency neighbour reductions for one graph.

    Holds the ``(n, lanes)`` packed adjacency (128 KB at n=1000, vs 4 MB
    for the float32 GEMM operand) and computes the two reductions every
    engine needs: the one-bit OR observation and the integer
    beeping-neighbour counts.  Both are bit-equal to the dense GEMM and
    sparse CSR results; the conformance suite enforces it.

    ``adjacency`` is the graph's packed rows (:func:`pack_adjacency`), or
    a view of one graph's block of a stacked armada packing; it is held,
    not copied.
    """

    def __init__(self, adjacency: np.ndarray) -> None:
        self._adjacency = adjacency

    @property
    def num_vertices(self) -> int:
        """Vertex count of the packed graph."""
        return self._adjacency.shape[0]

    @property
    def packed_adjacency(self) -> np.ndarray:
        """The ``(n, lanes)`` packed adjacency rows."""
        return self._adjacency

    def neighbor_or(self, flags: np.ndarray) -> np.ndarray:
        """Row-wise: whether any neighbour's flag is set, per vertex."""
        rows_count, n = flags.shape
        if n == 0 or rows_count == 0:
            return np.zeros((rows_count, n), dtype=bool)
        set_bits = np.count_nonzero(flags)
        if set_bits * _DENSE_FRACTION > rows_count * n:
            return self._broadcast_or(flags)
        out = np.zeros((rows_count, n), dtype=bool)
        rows, cols = np.divmod(np.flatnonzero(flags), n)
        if rows.size == 0:
            return out
        # Flat positions ascend row-major, so equal-row runs are
        # contiguous: one reduceat over the gathered packed rows folds
        # each trial's OR.
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(rows)) + 1)
        )
        folded = np.bitwise_or.reduceat(
            self._adjacency[cols], starts, axis=0
        )
        out[rows[starts]] = unpack_bits(folded, n)
        return out

    def _broadcast_or(self, flags: np.ndarray) -> np.ndarray:
        """Dense-round OR: chunked broadcast AND + lane fold."""
        rows_count, n = flags.shape
        packed = pack_bits(flags)
        out = np.empty((rows_count, n), dtype=bool)
        for lo in range(0, n, _CHUNK_VERTICES):
            hi = min(lo + _CHUNK_VERTICES, n)
            meet = packed[:, None, :] & self._adjacency[None, lo:hi, :]
            np.not_equal(
                np.bitwise_or.reduce(meet, axis=-1), 0, out=out[:, lo:hi]
            )
        return out

    def neighbor_counts(self, flags: np.ndarray) -> np.ndarray:
        """Row-wise beeping-neighbour counts (int64), per vertex."""
        rows_count, n = flags.shape
        counts = np.zeros((rows_count, n), dtype=np.int64)
        if n == 0 or rows_count == 0:
            return counts
        packed = pack_bits(flags)
        for lo in range(0, n, _CHUNK_VERTICES):
            hi = min(lo + _CHUNK_VERTICES, n)
            meet = packed[:, None, :] & self._adjacency[None, lo:hi, :]
            popcount(meet).sum(axis=-1, dtype=np.int64, out=counts[:, lo:hi])
        return counts


def packed_or_test(
    adjacency: np.ndarray,
    source_rows: np.ndarray,
    source_vertices: np.ndarray,
    query_rows: np.ndarray,
    query_cols: np.ndarray,
    num_rows: int,
) -> np.ndarray:
    """Whether each query entry neighbours a source entry of its row.

    The armada frontier's OR test on stacked packed adjacencies:
    ``adjacency`` is ``(graphs * n, lanes)``, graph ``g``'s packed rows at
    ``g * n .. g * n + n - 1``; source entry ``i`` sits in slot row
    ``source_rows[i]`` (sorted, as ``np.nonzero`` row-major order
    guarantees) and reads packed row ``source_vertices[i]`` (its slot's
    graph base plus its vertex).  The sources' rows are folded per slot
    row, then each query entry ``(query_rows[i], query_cols[i])`` — a
    local vertex id — tests its bit; no full-width tensor is built.
    """
    result = np.zeros(query_rows.size, dtype=bool)
    if source_rows.size == 0 or query_rows.size == 0:
        return result
    starts = np.concatenate(([0], np.flatnonzero(np.diff(source_rows)) + 1))
    folded = np.bitwise_or.reduceat(
        adjacency[source_vertices], starts, axis=0
    )
    row_position = np.full(num_rows, -1, dtype=np.int64)
    row_position[source_rows[starts]] = np.arange(starts.size)
    position = row_position[query_rows]
    hit = position >= 0
    cols = query_cols[hit]
    bits = (
        folded[position[hit], cols >> 6] >> (cols & 63).astype(np.uint64)
    ) & np.uint64(1)
    result[hit] = bits != 0
    return result
