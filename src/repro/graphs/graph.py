"""Core undirected graph data structure.

The whole reproduction works with a single, deliberately small graph type:
an immutable, undirected, simple graph over vertices ``0..n-1`` stored in
compressed-sparse-row (CSR) form — two read-only int32 numpy arrays,
``indptr`` (``n + 1`` segment offsets) and ``indices`` (every vertex's
sorted neighbour list, concatenated).  The vectorised engines read those
arrays directly; the per-node code reads Python views of them (sorted
neighbour tuples, neighbour frozensets, the degree tuple), which are
built lazily on first use and cached on the instance.  Immutability means
a :class:`Graph` can be shared freely between trials, algorithms and
engines without defensive copies.

Mutable construction goes through :class:`GraphBuilder`.
"""

from __future__ import annotations

from itertools import chain
from operator import eq
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

Edge = Tuple[int, int]


def _normalise_edge(u: int, v: int) -> Edge:
    """Return the canonical (min, max) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


ArrayPair = Tuple[np.ndarray, np.ndarray]


def _list_pairs(edges: List[object], num_vertices: int) -> Optional[ArrayPair]:
    """``edges`` as int64 ``(u, v)`` arrays when every edge is a pair of
    plain, in-range, distinct ``int`` (never ``bool``); else ``None``.

    The checks run as C-level passes over the flattened endpoints, never
    as a Python loop per edge.
    """
    if not set(map(type, edges)) <= {tuple, list} or set(map(len, edges)) - {2}:
        return None
    flat = list(chain.from_iterable(edges))
    if set(map(type, flat)) - {int}:
        return None
    if flat and (
        min(flat) < 0
        or max(flat) >= num_vertices
        or any(map(eq, flat[::2], flat[1::2]))
    ):
        return None
    ends = np.fromiter(flat, dtype=np.int64, count=len(flat))
    return ends[0::2], ends[1::2]


def _array_pairs(edges: np.ndarray, num_vertices: int) -> Optional[ArrayPair]:
    """An ``(m, 2)`` integer array as int64 ``(u, v)`` arrays when every
    endpoint is in range and no pair is a self-loop; else ``None``."""
    if edges.ndim != 2 or edges.shape[1] != 2:
        return None
    if edges.size and (
        edges.min() < 0
        or edges.max() >= num_vertices
        or (edges[:, 0] == edges[:, 1]).any()
    ):
        return None
    pairs = edges.astype(np.int64)
    return pairs[:, 0], pairs[:, 1]


def _checked_pairs(edges: Iterable[object], num_vertices: int) -> ArrayPair:
    """The per-edge check, in input order: raises the first invalid edge's
    error, else returns the pairs as int64 ``(u, v)`` arrays."""
    pairs: List[Edge] = []
    for u, v in edges:
        Graph._check_vertex(u, num_vertices)
        Graph._check_vertex(v, num_vertices)
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        pairs.append((u, v))
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return ends[:, 0], ends[:, 1]


def _csr(num_vertices: int, u: np.ndarray, v: np.ndarray) -> ArrayPair:
    """``(indptr, indices)`` of the simple graph with these valid edges.

    Both orientations of every edge become ``row * n + column`` keys; one
    sort lays them out row-major with sorted rows, and dropping repeated
    keys collapses duplicate edges given in either orientation.
    """
    n = num_vertices
    indptr = np.zeros(n + 1, dtype=np.int32)
    if u.size == 0:
        return indptr, np.zeros(0, dtype=np.int32)
    keys = np.concatenate((u * n + v, v * n + u))
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    rows, columns = np.divmod(keys, n)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, columns.astype(np.int32)


def _from_edge_arrays(num_vertices: int, u: np.ndarray, v: np.ndarray) -> "Graph":
    """A :class:`Graph` from int64 edge arrays the caller guarantees are
    in range and loop-free (generators drawing straight into arrays)."""
    return _from_csr(*_csr(num_vertices, u, v))


def _from_csr(indptr: np.ndarray, indices: np.ndarray) -> "Graph":
    """A :class:`Graph` over already-canonical CSR arrays (no checks)."""
    graph = Graph.__new__(Graph)
    graph._set_csr(indptr, indices)
    return graph


class Graph:
    """An immutable undirected simple graph on vertices ``0..n-1``.

    Parameters
    ----------
    num_vertices:
        The number of vertices ``n``.  Vertices are the integers
        ``0..n-1``; isolated vertices are permitted and occur naturally in
        sparse random graphs.
    edges:
        An iterable of ``(u, v)`` pairs, or an ``(m, 2)`` integer numpy
        array.  Self-loops are rejected; duplicate edges (in either
        orientation) are collapsed.

    Examples
    --------
    >>> g = Graph(3, [(0, 1), (1, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> g.neighbors(1)
    (0, 2)
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_num_vertices",
        "_num_edges",
        "_adjacency",
        "_neighbor_sets",
        "_degrees",
    )

    def __init__(self, num_vertices: int, edges: Iterable[Edge] = ()) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu":
            # Integer arrays are checked vectorised; an invalid one takes
            # the per-edge path on plain ints, so its errors read like a
            # list's.
            pairs = _array_pairs(edges, num_vertices)
            if pairs is None:
                pairs = _checked_pairs(edges.tolist(), num_vertices)
        else:
            # Anything that is not pairs of plain ints (bools, floats,
            # numpy scalars, malformed edges) or fails the vectorised
            # check takes the per-edge path, which raises exactly the
            # per-edge errors in input order.
            edges = edges if isinstance(edges, list) else list(edges)
            pairs = _list_pairs(edges, num_vertices)
            if pairs is None:
                pairs = _checked_pairs(edges, num_vertices)
        self._set_csr(*_csr(num_vertices, *pairs))

    def _set_csr(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._indptr = indptr
        self._indices = indices
        self._num_vertices = indptr.size - 1
        self._num_edges = indices.size // 2
        self._adjacency: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._neighbor_sets: Optional[Tuple[frozenset, ...]] = None
        self._degrees: Optional[Tuple[int, ...]] = None

    def __reduce__(self):
        return _from_csr, (np.array(self._indptr), np.array(self._indices))

    @staticmethod
    def _check_vertex(v: int, num_vertices: int) -> None:
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"vertex must be an int, got {v!r}")
        if not 0 <= v < num_vertices:
            raise ValueError(
                f"vertex {v} out of range for graph with {num_vertices} vertices"
            )

    # ------------------------------------------------------------------
    # Storage and its lazy Python views
    # ------------------------------------------------------------------

    @property
    def indptr(self) -> np.ndarray:
        """Read-only int32 CSR offsets: ``v``'s neighbours are
        ``indices[indptr[v]:indptr[v + 1]]``."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only int32 CSR neighbour lists, each sorted ascending."""
        return self._indices

    def _neighbor_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        """The sorted neighbour tuples of every vertex (built once)."""
        if self._adjacency is None:
            flat = self._indices.tolist()
            bounds = self._indptr.tolist()
            self._adjacency = tuple(
                tuple(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
            )
        return self._adjacency

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges ``m``."""
        return self._num_edges

    def vertices(self) -> range:
        """The vertex set as a ``range`` object."""
        return range(self._num_vertices)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """The sorted tuple of neighbours of ``v``."""
        adjacency = self._adjacency
        if adjacency is None:
            adjacency = self._neighbor_tuples()
        return adjacency[v]

    def neighbor_set(self, v: int) -> frozenset:
        """The neighbours of ``v`` as a frozenset (O(1) membership)."""
        if self._neighbor_sets is None:
            self._neighbor_sets = tuple(map(frozenset, self._neighbor_tuples()))
        return self._neighbor_sets[v]

    def degree(self, v: int) -> int:
        """The degree of vertex ``v``."""
        return self.degrees()[v]

    def degrees(self) -> Tuple[int, ...]:
        """Degrees of all vertices, indexed by vertex."""
        if self._degrees is None:
            self._degrees = tuple(np.diff(self._indptr).tolist())
        return self._degrees

    def max_degree(self) -> int:
        """The maximum degree, 0 for the empty graph."""
        if self.num_vertices == 0:
            return 0
        return max(self.degrees())

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` is present."""
        self._check_vertex(u, self.num_vertices)
        self._check_vertex(v, self.num_vertices)
        return v in self.neighbor_set(u)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges in canonical ``(u, v)`` with ``u < v`` order."""
        rows = np.repeat(
            np.arange(self._num_vertices, dtype=np.int32), np.diff(self._indptr)
        )
        upper = rows < self._indices
        yield from zip(rows[upper].tolist(), self._indices[upper].tolist())

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """The induced subgraph, with vertices relabelled to ``0..k-1``.

        The relabelling follows the order of ``vertices``; duplicates are
        rejected.
        """
        index: Dict[int, int] = {}
        for i, v in enumerate(vertices):
            self._check_vertex(v, self.num_vertices)
            if v in index:
                raise ValueError(f"duplicate vertex {v} in subgraph selection")
            index[v] = i
        edges = [
            (index[u], index[v])
            for u, v in self.edges()
            if u in index and v in index
        ]
        return Graph(len(index), edges)

    # ------------------------------------------------------------------
    # Matrix view
    # ------------------------------------------------------------------

    def adjacency_matrix(self):
        """The boolean adjacency matrix as a numpy array (n x n)."""
        n = self.num_vertices
        matrix = np.zeros((n, n), dtype=bool)
        for u, v in self.edges():
            matrix[u, v] = True
            matrix[v, u] = True
        return matrix

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self._indptr, other._indptr) and np.array_equal(
            self._indices, other._indices
        )

    def __hash__(self) -> int:
        return hash(self._neighbor_tuples())

    def __len__(self) -> int:
        return self.num_vertices

    def __contains__(self, v: object) -> bool:
        return (
            isinstance(v, int)
            and not isinstance(v, bool)
            and 0 <= v < self.num_vertices
        )

    def __repr__(self) -> str:
        return (
            f"Graph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )


class GraphBuilder:
    """Mutable helper for incremental graph construction.

    >>> builder = GraphBuilder()
    >>> a, b = builder.add_vertex(), builder.add_vertex()
    >>> builder.add_edge(a, b)
    >>> builder.build().num_edges
    1
    """

    def __init__(self, num_vertices: int = 0) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be >= 0")
        self._num_vertices = num_vertices
        self._edges: Set[Edge] = set()

    @property
    def num_vertices(self) -> int:
        """Current number of vertices."""
        return self._num_vertices

    def add_vertex(self) -> int:
        """Add one vertex and return its id."""
        v = self._num_vertices
        self._num_vertices += 1
        return v

    def add_vertices(self, count: int) -> List[int]:
        """Add ``count`` vertices and return their ids."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return [self.add_vertex() for _ in range(count)]

    def add_edge(self, u: int, v: int) -> None:
        """Add the undirected edge ``{u, v}``; idempotent."""
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        for w in (u, v):
            if not 0 <= w < self._num_vertices:
                raise ValueError(f"vertex {w} has not been added")
        self._edges.add(_normalise_edge(u, v))

    def add_clique(self, vertices: Sequence[int]) -> None:
        """Add all C(k, 2) edges among ``vertices``."""
        for i, u in enumerate(vertices):
            for v in vertices[i + 1:]:
                self.add_edge(u, v)

    def build(self) -> Graph:
        """Freeze the builder into an immutable :class:`Graph`."""
        return Graph(self._num_vertices, sorted(self._edges))
