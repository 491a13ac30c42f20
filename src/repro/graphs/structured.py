"""Deterministic structured graph families.

These are the non-random workloads used in the paper (rectangular grids for
the Figure 5 "beeps per node" claim) plus the standard families every graph
library ships, which the tests use as known-answer fixtures (the edgeless
graph, cliques, paths, cycles, stars) and the biology substrate depends on
(hexagonal lattices of cells).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.graphs.graph import Graph


def empty_graph(n: int) -> Graph:
    """``n`` isolated vertices."""
    return Graph(n)


def complete_graph(n: int) -> Graph:
    """The complete graph ``K_n``."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    """The path ``P_n`` with ``n`` vertices and ``n - 1`` edges."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """The cycle ``C_n``; requires ``n >= 3`` (or ``n <= 1`` for trivial)."""
    if n == 2:
        raise ValueError("a cycle needs at least 3 vertices (2 would be a multi-edge)")
    if n <= 1:
        return Graph(n)
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((n - 1, 0))
    return Graph(n, edges)


def star_graph(leaves: int) -> Graph:
    """The star ``K_{1,leaves}``: hub 0 connected to ``leaves`` leaves."""
    if leaves < 0:
        raise ValueError("leaves must be >= 0")
    return Graph(leaves + 1, [(0, leaf) for leaf in range(1, leaves + 1)])


def grid_graph(rows: int, cols: int) -> Graph:
    """The ``rows x cols`` rectangular grid (4-neighbour lattice).

    Vertex ``(r, c)`` is numbered ``r * cols + c``.  This is the "rectangular
    grid graph" family used by the paper for the beeps-per-node claim.
    """
    if rows < 0 or cols < 0:
        raise ValueError("grid dimensions must be >= 0")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def hex_lattice_graph(rows: int, cols: int) -> Graph:
    """A hexagonally packed lattice of cells (6-neighbour triangular lattice).

    This is the standard abstraction of an epithelial cell sheet, used by the
    Notch–Delta biology substrate: each interior cell touches six
    neighbours.  Cells are laid out in ``rows`` offset rows of ``cols`` cells;
    cell ``(r, c)`` is numbered ``r * cols + c``.
    """
    if rows < 0 or cols < 0:
        raise ValueError("lattice dimensions must be >= 0")
    edges: List[Tuple[int, int]] = []

    def vertex(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            v = vertex(r, c)
            if c + 1 < cols:
                edges.append((v, vertex(r, c + 1)))
            if r + 1 < rows:
                edges.append((v, vertex(r + 1, c)))
                # Offset rows: even rows also touch the previous column below,
                # odd rows the next column below.
                if r % 2 == 0 and c - 1 >= 0:
                    edges.append((v, vertex(r + 1, c - 1)))
                if r % 2 == 1 and c + 1 < cols:
                    edges.append((v, vertex(r + 1, c + 1)))
    return Graph(rows * cols, edges)
