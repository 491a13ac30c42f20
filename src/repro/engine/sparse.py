"""Neighbour operands and the one backend policy of every lockstep engine.

A dense n×n adjacency is perfect for the paper's ``G(n, 1/2)`` workloads
and quadratic waste for sparse topologies (grids, geometric/sensor
networks, scale-free graphs).  :class:`NeighbourOperand` is the one
place the backend is decided (:data:`BACKENDS`, :func:`resolve_backend`)
and built: the armada, message and application engines each hold one
and ask it for three row-grouped reductions — the neighbour OR, the
neighbour counts and the masked neighbour minimum — without branching
on the backend themselves.

- ``"dense"``: a ``(graphs, n, n)`` float32 adjacency stack, scattered
  from the CSR (:func:`csr_to_dense`), plus the same rows packed into
  uint64 bit words.  Counts are one batched GEMM (*pull*), and so is
  the OR while many vertices beep; once the feedback rule has thinned
  the beepers out, the OR *pushes* instead: it gathers each beeper's
  packed adjacency row and ORs them per slot row, so its cost follows
  the beepers, not n^2.  A measured cost model (:func:`_pushes`) picks
  the direction per call, as in direction-optimising BFS (Beamer,
  Asanović and Patterson, SC 2012).  The minimum is a blocked
  full-adjacency sweep.
- ``"sparse"``: one compressed-sparse-row operand per graph
  (:func:`build_csr`, padded by :func:`padded_csr`), so a round costs
  O(n + m) with small constants.  Its one pad index serves all three
  reductions: the fault-free neighbour OR (:func:`csr_row_or`), which
  packs the slot axis into uint64 bit lanes so one
  ``bitwise_or.reduceat`` over the gathered neighbour rows serves 64
  slots per word; the neighbour counts (:func:`csr_row_counts`, a
  ``numpy.add.reduceat`` over the neighbour lists) that the noisy
  channel's loss model and the message rules need; and the masked
  minimum, one ``minimum.reduceat`` over the same gather.

With mean degree ~8 this comfortably simulates n = 50,000 node networks —
letting the scaling benchmark extend Theorem 2's O(log n) curve well past
the paper's n = 1000.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

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
    return (graph.indices.astype(np.int64),) + _segments(graph)


def _segments(graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`build_csr`'s ``(starts, isolated)``."""
    indptr = graph.indptr.astype(np.int64)
    return indptr[:-1], indptr[1:] == indptr[:-1]


def padded_csr(csr: CSR) -> CSR:
    """The reduction kernels' operand: ``(gather, starts, isolated)``.

    ``gather`` is ``columns`` with one trailing pad index ``n``.  Every
    sparse reduction (:func:`csr_row_counts`, :func:`csr_row_or` and
    :meth:`NeighbourOperand.masked_min`) gathers per-vertex values at it
    from a source whose entry ``n`` is the reduction's identity (zero, or
    :data:`KEY_SENTINEL`), so the gathered array ends in one identity
    and every unclamped start is a valid ``reduceat`` index.  Clamping
    the starts instead would silently truncate the last non-empty
    vertex's segment and drop beeps from its highest-index neighbours.
    Empty segments (isolated vertices) still reduce to garbage, which
    every reduction masks with ``isolated``.  Build it once per graph: it
    costs one ``m + 1`` int64 copy.
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
    noisy channel's loss model and the message rules need counts; the
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


#: "No masked neighbour" in :meth:`NeighbourOperand.masked_min`.  A real
#: key can collide with it only at probability 2^-64 per draw (the
#: value-keyed message rules); the collision merely postpones that
#: vertex's join by a round.
KEY_SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Element budget of one dense masked-min broadcast block (uint64), ~16 MB.
_DENSE_MIN_CHUNK_ELEMENTS = 1 << 21

#: The dense OR's cost model (:func:`_pushes`), in nanoseconds, fitted
#: to push and pull timings on one OpenBLAS thread of a 2-core x86-64
#: host (docs/perf.md, "Push or pull").  Pull pays per multiply-add of
#: its staged GEMM; push pays a fixed call overhead beyond pull's, per
#: gathered uint64 word of packed adjacency, and per ``(row, vertex)``
#: cell it scans and unpacks.  The fixed overhead fits 14 µs in
#: isolation; 30 µs also covers the first push's packing and cold bit
#: rows, which made pushes at n = 150-200 cost more than GEMMs in a
#: whole ``figure5_series`` run.
_PUSH_FIXED_NS = 30_000.0
_PUSH_NS_PER_WORD = 2.5
_PUSH_NS_PER_CELL = 0.3
_PULL_NS_PER_MAC = 0.023


def _pushes(flags: np.ndarray, staged_rows: int) -> bool:
    """Whether the dense OR of the ``(rows, n)`` ``flags`` is cheaper by
    push (gather the flagged vertices' packed adjacency rows) than by
    pull (the GEMM of ``staged_rows`` padded rows).

    Pull's cost grows with n^2 per row and push's with the beepers, so
    push wins on large graphs once the feedback rule has thinned the
    beepers out.  On small graphs the GEMM undercuts push's fixed
    overhead whatever the beepers (below n = 209 at 32 rows, below
    n = 411 at 8), and the flags are not even counted.
    """
    rows, n = flags.shape
    spare_ns = (
        _PULL_NS_PER_MAC * staged_rows * n * n
        - _PUSH_FIXED_NS
        - _PUSH_NS_PER_CELL * rows * n
    )
    return spare_ns > 0.0 and (
        _PUSH_NS_PER_WORD * ((n + 63) >> 6) * int(np.count_nonzero(flags))
        < spare_ns
    )


def _groups(sizes: Sequence[int]) -> Iterator[Tuple[int, slice]]:
    """``(graph, row block)`` of every non-empty row group."""
    offset = 0
    for g, size in enumerate(sizes):
        if size:
            yield g, slice(offset, offset + size)
        offset += size


class NeighbourOperand:
    """Every neighbour reduction of a stack of same-``n`` graphs.

    The one place the dense/sparse backend is decided
    (:func:`resolve_backend`) and built: ``"dense"`` holds the
    ``(graphs, n, n)`` float32 adjacency stack, the float32 staging
    buffers of its batched GEMM and, from the first push on, the
    ``(graphs * n, ceil(n / 64))`` uint64 bit rows that :meth:`any`
    pushes from when the GEMM would cost more (:func:`_pushes`);
    ``"sparse"`` holds one :func:`padded_csr` per graph.  Both keep
    every graph's :func:`build_csr` (:attr:`csrs`), widened once into
    one int64 :attr:`columns` block that the armada's frontier indexes.
    The armadas build one in ``__init__`` and never branch on the
    backend again (apart from the frontier's choice of when one operand
    OR beats expanding neighbour lists).

    Every reduction takes ``(rows, n)`` inputs whose rows are grouped by
    graph: ``sizes[g]`` rows of graph ``g``, in graph order (a size may
    be zero), so a live-row subset of an armada batch is one call.  Both
    backends return identical values: the float32 GEMM counts are exact
    small integers (degree < 2^24), and a minimum is exact.
    """

    def __init__(self, graphs: Sequence[Graph], backend: str = "auto") -> None:
        n = graphs[0].num_vertices
        self._n = n
        self._backend = resolve_backend(backend, len(graphs), n)
        # Every graph's columns widened once, end to end in one int64 block
        # that the armada's frontier indexes whole; each graph's
        # build_csr columns is a slice of it.
        self._columns = np.concatenate(
            [graph.indices for graph in graphs], dtype=np.int64
        )
        self._columns.flags.writeable = False
        bounds = np.cumsum([0] + [graph.indices.size for graph in graphs])
        self._csrs = tuple(
            (self._columns[lo:hi],) + _segments(graph)
            for graph, lo, hi in zip(graphs, bounds, bounds[1:])
        )
        for _, starts, isolated in self._csrs:
            starts.flags.writeable = isolated.flags.writeable = False
        if self._backend == "dense":
            self._adjacency = np.zeros((len(graphs), n, n), dtype=np.float32)
            for g, (columns, starts, _) in enumerate(self._csrs):
                csr_to_dense(columns, starts, self._adjacency[g])
            self._flags32 = np.empty((0, n), dtype=np.float32)
            self._counts32 = np.empty((0, n), dtype=np.float32)
            # Push's operand, packed on the first push: most small-graph
            # operands never push, and packing adds 15-25% to their build.
            self._bit_rows: Optional[np.ndarray] = None
        else:
            self._padded = [padded_csr(csr) for csr in self._csrs]

    @property
    def backend(self) -> str:
        """The resolved backend, ``"dense"`` or ``"sparse"``."""
        return self._backend

    @property
    def csrs(self) -> Tuple[CSR, ...]:
        """Every graph's :func:`build_csr`, in graph order, with read-only
        arrays: the armada lays its frontier CSR out from them."""
        return self._csrs

    @property
    def columns(self) -> np.ndarray:
        """The :attr:`csrs`' columns end to end (read only); each CSR's
        columns is a slice of this one array."""
        return self._columns

    def _products(
        self, flags: np.ndarray, sizes: Sequence[int]
    ) -> Iterator[Tuple[slice, np.ndarray]]:
        """``flags`` times its graphs' adjacency, one batched float32 GEMM.

        Yields ``(row block, float32 counts)`` pairs covering every row:
        one pair when all groups are equal (the staging buffer reshapes
        for free), one per non-empty group when they are ragged (each
        group padded to the widest).
        """
        num_graphs, n = self._adjacency.shape[0], self._n
        width = int(max(sizes))
        if self._flags32.shape[0] < num_graphs * width:
            self._flags32 = np.empty((num_graphs * width, n), dtype=np.float32)
            self._counts32 = np.empty_like(self._flags32)
        shape = (num_graphs, width, n)
        staged = self._flags32[: num_graphs * width].reshape(shape)
        counts = self._counts32[: num_graphs * width].reshape(shape)
        equal = flags.shape[0] == num_graphs * width
        if equal:
            np.copyto(staged.reshape(-1, n), flags)
        else:
            staged[:] = 0.0
            for g, block in _groups(sizes):
                np.copyto(staged[g, : block.stop - block.start], flags[block])
        np.matmul(staged, self._adjacency, out=counts)
        if equal:
            yield slice(0, flags.shape[0]), counts.reshape(-1, n)
            return
        for g, block in _groups(sizes):
            yield block, counts[g, : block.stop - block.start]

    def _push(
        self, flags: np.ndarray, sizes: Sequence[int], out: np.ndarray
    ) -> None:
        """The dense OR by push: each row ORs its beepers' bit rows.

        One ``take`` gathers every flagged ``(row, vertex)``'s packed
        adjacency row (rows in order, so each flag row is one segment),
        one ``bitwise_or.reduceat`` folds the segments, and
        ``unpackbits`` writes the words' bits back as booleans.  The
        gather ends in the all-zero pad row, so a trailing empty
        segment's start is a valid index; an empty segment in the middle
        reduces to its successor's first row, which the mask zeroes.
        """
        n = self._n
        if self._bit_rows is None:
            # Adjacency row g*n + v as bits of uint64 words (bit c =
            # column c), and one all-zero pad row at the end.
            num_graphs = self._adjacency.shape[0]
            self._bit_rows = np.zeros(
                (num_graphs * n + 1, (n + 63) >> 6), dtype=np.uint64
            )
            row_bytes = self._bit_rows.view(np.uint8)
            for g in range(num_graphs):
                row_bytes[g * n : (g + 1) * n, : (n + 7) >> 3] = np.packbits(
                    self._adjacency[g] != 0.0, axis=1, bitorder="little"
                )
        positions = np.flatnonzero(flags)
        rows = positions // n
        counts = np.bincount(rows, minlength=flags.shape[0])
        ends = np.cumsum(counts)
        # Flat position row * n + v becomes bit row graph(row) * n + v.
        offsets = n * (
            np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
            - np.arange(flags.shape[0], dtype=np.int64)
        )
        gather = np.empty(positions.size + 1, dtype=np.int64)
        np.add(positions, offsets[rows], out=gather[:-1])
        gather[-1] = self._bit_rows.shape[0] - 1
        reduced = np.bitwise_or.reduceat(
            np.take(self._bit_rows, gather, axis=0), ends - counts, axis=0
        )
        reduced[counts == 0] = 0
        out[...] = np.unpackbits(
            reduced.view(np.uint8), axis=1, count=n, bitorder="little"
        ).view(bool)

    def any(
        self,
        flags: np.ndarray,
        sizes: Sequence[int],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Row-wise: whether any neighbour's flag is set (bool).

        On the dense backend each call pulls (the GEMM of
        :meth:`_products`) or pushes (:meth:`_push`), whichever
        :func:`_pushes` prices lower for its n, rows and flag count;
        both give the same booleans.
        """
        if out is None:
            out = np.empty(flags.shape, dtype=bool)
        if flags.size == 0:
            out[...] = False
        elif self._backend == "dense":
            if _pushes(flags, len(sizes) * int(max(sizes))):
                self._push(flags, sizes, out)
            else:
                for block, counts in self._products(flags, sizes):
                    np.greater(counts, 0.0, out=out[block])
        else:
            for g, block in _groups(sizes):
                out[block] = csr_row_or(flags[block], *self._padded[g])
        return out

    def counts(self, flags: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
        """Row-wise flagged-neighbour counts (int64)."""
        out = np.zeros(flags.shape, dtype=np.int64)
        if flags.size == 0:
            return out
        if self._backend == "dense":
            for block, counts in self._products(flags, sizes):
                out[block] = counts
        else:
            for g, block in _groups(sizes):
                out[block] = csr_row_counts(flags[block], *self._padded[g])
        return out

    def masked_min(
        self, keys: np.ndarray, mask: np.ndarray, sizes: Sequence[int]
    ) -> np.ndarray:
        """Row-wise: the least uint64 key among the masked neighbours.

        Unmasked (and absent) neighbours count as :data:`KEY_SENTINEL`,
        so a vertex with no masked neighbour gets the sentinel back.
        """
        n = self._n
        result = np.full(keys.shape, KEY_SENTINEL, dtype=np.uint64)
        if keys.size == 0:
            return result
        # Column n is the pad the sparse gather reads for a segment end.
        source = np.full((keys.shape[0], n + 1), KEY_SENTINEL, dtype=np.uint64)
        np.copyto(source[:, :n], keys, where=mask)
        for g, block in _groups(sizes):
            if self._backend == "sparse":
                gather, starts, isolated = self._padded[g]
                minima = np.minimum.reduceat(
                    source[block][:, gather], starts, axis=1
                )
                # Empty segments (isolated vertices) reduce to garbage.
                minima[:, isolated] = KEY_SENTINEL
                result[block] = minima
                continue
            # Blocked full-adjacency sweep: numpy has no (min, x) GEMM, so
            # the O(n^2) pass broadcasts adjacency blocks against the key
            # rows, bounded to _DENSE_MIN_CHUNK_ELEMENTS per temporary.
            adjacency = self._adjacency[g]
            masked = source[block, :n]
            rows = result[block]
            chunk = max(1, _DENSE_MIN_CHUNK_ELEMENTS // (masked.shape[0] * n))
            for lo in range(0, n, chunk):
                hi = min(lo + chunk, n)
                contribution = np.where(
                    adjacency[np.newaxis, lo:hi, :] > 0.0,
                    masked[:, lo:hi, np.newaxis],
                    KEY_SENTINEL,
                )
                np.minimum(rows, contribution.min(axis=1), out=rows)
        return result


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
