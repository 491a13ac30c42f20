"""Neighbour operands and the one backend policy of every lockstep engine.

A dense n×n adjacency is perfect for the paper's ``G(n, 1/2)`` workloads
and quadratic waste for sparse topologies (grids, geometric/sensor
networks, scale-free graphs).  The ``"sparse"`` backends of the armada,
message and application engines keep the adjacency in
compressed-sparse-row form instead and compute neighbour counts with
``numpy.add.reduceat`` over the neighbour lists, so a round costs
O(n + m) with small constants.  This module builds that CSR
(:func:`build_csr`), owns the one reduction over it
(:func:`csr_row_counts`), scatters it into the ``"dense"`` backends'
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


def build_csr(graph: Graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR neighbour lists of ``graph``: ``(columns, starts, isolated)``.

    Read straight off the graph's own CSR arrays (``Graph.indices`` and
    ``Graph.indptr``), widened to int64 so the engines' index arithmetic
    (``row * n + column`` and the block-diagonal offsets) cannot
    overflow.  ``columns`` concatenates each vertex's neighbour list;
    ``starts`` holds the *unclamped* per-vertex segment starts
    (``starts[v] == columns.size`` for a trailing run of isolated
    vertices).  Consumers must therefore pad the gathered flag array with
    one trailing zero before ``np.add.reduceat`` so every start is a valid
    index — clamping the starts instead would silently truncate the last
    non-empty vertex's segment and drop beeps from its highest-index
    neighbours.  Empty segments (isolated vertices) still produce garbage
    sums and are masked with ``isolated`` (:func:`csr_row_counts` does
    both).
    """
    indptr = graph.indptr.astype(np.int64)
    return (
        graph.indices.astype(np.int64),
        indptr[:-1],
        indptr[1:] == indptr[:-1],
    )


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
