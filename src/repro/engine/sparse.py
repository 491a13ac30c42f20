"""CSR neighbour lists for large, sparse graphs.

A dense n×n adjacency is perfect for the paper's ``G(n, 1/2)`` workloads
and quadratic waste for sparse topologies (grids, geometric/sensor
networks, scale-free graphs).  The ``"sparse"`` backends of the fleet,
armada, message and application engines keep the adjacency in
compressed-sparse-row form instead and compute neighbour counts with
``numpy.add.reduceat`` over the neighbour lists, so a round costs
O(n + m) with small constants.  This module builds that CSR
(:func:`build_csr`) and owns the one reduction over it
(:func:`csr_row_counts`).

With mean degree ~8 this comfortably simulates n = 50,000 node networks —
letting the scaling benchmark extend Theorem 2's O(log n) curve well past
the paper's n = 1000.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graphs.graph import Graph


def build_csr(graph: Graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR neighbour lists of ``graph``: ``(columns, starts, isolated)``.

    ``columns`` concatenates each vertex's neighbour list; ``starts`` holds
    the *unclamped* per-vertex segment starts (``starts[v] ==
    columns.size`` for a trailing run of isolated vertices).  Consumers
    must therefore pad the gathered flag array with one trailing zero
    before ``np.add.reduceat`` so every start is a valid index — clamping
    the starts instead would silently truncate the last non-empty
    vertex's segment and drop beeps from its highest-index neighbours.
    Empty segments (isolated vertices) still produce garbage sums and are
    masked with ``isolated`` (:func:`csr_row_counts` does both).
    """
    from itertools import chain

    n = graph.num_vertices
    neighbor_lists = [graph.neighbors(v) for v in graph.vertices()]
    degrees = np.fromiter(map(len, neighbor_lists), dtype=np.int64, count=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    # One C-level pass over the chained neighbour tuples; the per-vertex
    # slice-assignment loop this replaces paid a tuple->array conversion
    # per vertex.
    columns = np.fromiter(
        chain.from_iterable(neighbor_lists),
        dtype=np.int64,
        count=int(offsets[-1]),
    )
    return columns, offsets[:-1].copy(), degrees == 0


def csr_row_counts(
    flags: np.ndarray,
    columns: np.ndarray,
    starts: np.ndarray,
    isolated: np.ndarray,
) -> np.ndarray:
    """Row-wise flagged-neighbour counts over one CSR, for 2-D flags.

    The one implementation of the pad/clamp discipline ``build_csr``
    documents, shared by every batched CSR consumer (fleet, armada and
    message kernels) so the reduceat subtleties — the trailing pad
    column that keeps unclamped starts in range, the garbage sums of
    empty segments — can never drift between engines.  ``flags`` is
    ``(rows, n)`` boolean; returns ``(rows, n)`` int64.
    """
    k, n = flags.shape
    if columns.size == 0:
        return np.zeros((k, n), dtype=np.int64)
    # One trailing zero column keeps every (unclamped) start in range,
    # so trailing empty segments never truncate the last real segment.
    gathered = np.zeros((k, columns.size + 1), dtype=np.int32)
    gathered[:, :-1] = flags[:, columns]
    counts = np.add.reduceat(gathered, starts, axis=1)
    # Empty segments (isolated vertices) yield garbage sums; zero them.
    counts[:, isolated] = 0
    return counts.astype(np.int64)
