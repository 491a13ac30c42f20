"""Neighbour operands and the one backend policy of every lockstep engine.

A dense n×n adjacency is perfect for the paper's ``G(n, 1/2)`` workloads
and quadratic waste for sparse topologies (grids, geometric/sensor
networks, scale-free graphs).  The ``"sparse"`` backends of the armada,
message and application engines keep the adjacency in
compressed-sparse-row form instead, so a round costs O(n + m) with small
constants.  This module builds that CSR (:func:`build_csr`) and its
padded form (:func:`padded_csr`), whose one pad index both reductions
over it share: the fault-free neighbour OR (:func:`csr_row_or`), which
packs the slot axis into uint64 bit lanes so one ``bitwise_or.reduceat``
over the gathered neighbour rows serves 64 slots per word, and the
neighbour counts (:func:`csr_row_counts`, a ``numpy.add.reduceat`` over
the neighbour lists) that the noisy channel's loss model and the message
kernels need.  It also scatters the CSR into the ``"dense"`` backends'
n×n operand (:func:`csr_to_dense`), and decides between the two
(:data:`BACKENDS`, :func:`resolve_backend`) for every engine and every
caller that validates a backend name.

With mean degree ~8 this comfortably simulates n = 50,000 node networks —
letting the scaling benchmark extend Theorem 2's O(log n) curve well past
the paper's n = 1000.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graphs.graph import Graph

#: Backend names every engine, sweep cell and CLI accepts.  All backends
#: compute identical booleans, so the choice never changes results.
BACKENDS = ("auto", "dense", "sparse")

#: Largest vertex count for which ``auto`` picks the dense backend on one
#: graph; a 4096^2 float32 adjacency is 64 MB.
DENSE_VERTEX_LIMIT = 4096


def resolve_backend(backend: str, num_graphs: int, n: int) -> str:
    """``"dense"`` or ``"sparse"`` for a stack of ``num_graphs`` graphs.

    ``auto`` picks dense while the whole ``(graphs, n, n)`` operand stays
    within one :data:`DENSE_VERTEX_LIMIT`-vertex adjacency, sparse beyond.
    """
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend != "auto":
        return backend
    return (
        "dense" if num_graphs * n * n <= DENSE_VERTEX_LIMIT ** 2 else "sparse"
    )


#: One CSR as the engines hold it: ``(columns, starts, isolated)``.
CSR = Tuple[np.ndarray, np.ndarray, np.ndarray]


def build_csr(graph: Graph) -> CSR:
    """CSR neighbour lists of ``graph``: ``(columns, starts, isolated)``.

    Read straight off the graph's own CSR arrays (``Graph.indices`` and
    ``Graph.indptr``), widened to int64 so the engines' index arithmetic
    (``row * n + column`` and the block-diagonal offsets) cannot
    overflow.  ``columns`` concatenates each vertex's neighbour list;
    ``starts`` holds the *unclamped* per-vertex segment starts
    (``starts[v] == columns.size`` for a trailing run of isolated
    vertices), and ``isolated`` marks the empty segments.  The reduction
    kernels take the padded form of this CSR (:func:`padded_csr`).
    """
    indptr = graph.indptr.astype(np.int64)
    return (
        graph.indices.astype(np.int64),
        indptr[:-1],
        indptr[1:] == indptr[:-1],
    )


def padded_csr(csr: CSR) -> CSR:
    """The reduction kernels' operand: ``(gather, starts, isolated)``.

    ``gather`` is ``columns`` with one trailing pad index ``n``.  Both
    kernels (:func:`csr_row_counts` and :func:`csr_row_or`) gather
    per-vertex values at it from a source whose entry ``n`` is zero, so
    the gathered array ends in one zero and every unclamped start is a
    valid ``reduceat`` index.  Clamping the starts instead would silently
    truncate the last non-empty vertex's segment and drop beeps from its
    highest-index neighbours.  Empty segments (isolated vertices) still
    reduce to garbage, which both kernels mask with ``isolated``.  Build
    it once per graph: it costs one ``m + 1`` int64 copy.
    """
    columns, starts, isolated = csr
    return np.append(columns, isolated.size), starts, isolated


def csr_row_counts(
    flags: np.ndarray,
    gather: np.ndarray,
    starts: np.ndarray,
    isolated: np.ndarray,
) -> np.ndarray:
    """Row-wise flagged-neighbour counts over one :func:`padded_csr`.

    ``flags`` is ``(rows, n)`` boolean; returns ``(rows, n)`` int64.  The
    noisy channel's loss model and the message kernels need counts; the
    fault-free OR is :func:`csr_row_or`.
    """
    k, n = flags.shape
    if gather.size == 1:  # no edges: only the pad
        return np.zeros((k, n), dtype=np.int64)
    source = np.zeros((k, n + 1), dtype=bool)
    source[:, :n] = flags
    counts = np.add.reduceat(
        source[:, gather], starts, axis=1, dtype=np.int32
    )
    # Empty segments (isolated vertices) yield garbage sums; zero them.
    counts[:, isolated] = 0
    return counts.astype(np.int64)


def csr_row_or(
    flags: np.ndarray,
    gather: np.ndarray,
    starts: np.ndarray,
    isolated: np.ndarray,
) -> np.ndarray:
    """Row-wise neighbour OR over one :func:`padded_csr`:
    ``csr_row_counts(...) > 0``.

    Several rows pack the slot axis into bits: ``flags.T`` becomes one
    ``(n + 1, words)`` uint64 row per vertex (lane ``s`` = row ``s`` of
    ``flags``; row ``n`` is the all-zero pad).  Gathering those rows is a
    contiguous row copy, and one ``bitwise_or.reduceat`` along the
    neighbour axis ORs 64 flag rows per word.  One row has nothing to
    pack and ORs its gathered booleans directly, which is cheaper than
    both the packed lanes and the count.  ``flags`` is ``(rows, n)``
    boolean; returns ``(rows, n)`` bool.
    """
    k, n = flags.shape
    if k == 0 or gather.size == 1:
        return np.zeros((k, n), dtype=bool)
    if k == 1:
        source = np.zeros(n + 1, dtype=bool)
        source[:n] = flags[0]
        heard = np.logical_or.reduceat(source[gather], starts)
        heard[isolated] = False
        return heard[None]
    words = (k + 63) >> 6
    lane_bytes = (k + 7) >> 3
    # Bit planes: byte j of vertex v carries rows 8j .. 8j + 7 of flags.
    # (Eight shifts over contiguous planes; ``np.packbits`` along the
    # strided slot axis measured several times slower.)
    planes = np.zeros((lane_bytes * 8, n), dtype=np.uint8)
    planes[:k] = flags
    planes = planes.reshape(lane_bytes, 8, n)
    slot_bytes = planes[:, 0].copy()
    for bit in range(1, 8):
        slot_bytes |= planes[:, bit] << bit
    packed = np.zeros((n + 1, words * 8), dtype=np.uint8)
    packed[:n, :lane_bytes] = slot_bytes.T
    gathered = np.take(packed.view(np.uint64), gather, axis=0)
    reduced = np.bitwise_or.reduceat(gathered, starts, axis=0)
    # Empty segments (isolated vertices) yield garbage ORs; zero them.
    reduced[isolated] = 0
    heard_bytes = np.ascontiguousarray(
        reduced.view(np.uint8)[:, :lane_bytes].T
    )
    bits = np.empty((lane_bytes, 8, n), dtype=np.uint8)
    for bit in range(8):
        np.bitwise_and(heard_bytes >> bit, 1, out=bits[:, bit])
    return bits.reshape(lane_bytes * 8, n)[:k].view(bool)


def csr_to_dense(
    columns: np.ndarray, starts: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Scatter one :func:`build_csr` CSR into the zeroed ``(n, n)`` ``out``.

    One vectorised ``rows * n + columns`` scatter (any ``out`` dtype), in
    place of the per-edge Python loop of ``Graph.adjacency_matrix``.
    """
    n = out.shape[0]
    degrees = np.diff(np.append(starts, columns.size))
    rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
    out.reshape(-1)[rows * n + columns] = 1
    return out
