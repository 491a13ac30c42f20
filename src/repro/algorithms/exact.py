"""Exact maximum independent set (MaxIS) by branch and bound.

The paper contrasts MIS selection with the NP-hard MaxIS problem.  This
solver exists for that contrast: examples and tests use it (on small
graphs) to report how far the distributed algorithms' MIS sizes fall from
the optimum.  The implementation is a classic branching on the
highest-degree vertex with a greedy clique-cover upper bound, over
Python-int vertex bitmasks; fine up to a few dozen vertices, guarded
against larger inputs.
"""

from __future__ import annotations

from typing import List, Set

from repro.graphs.graph import Graph

MAX_EXACT_VERTICES = 64

try:
    _popcount = int.bit_count
except AttributeError:  # Python < 3.10

    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


def _bits(mask: int) -> List[int]:
    """The vertices of ``mask``, ascending."""
    vertices = []
    while mask:
        low = mask & -mask
        vertices.append(low.bit_length() - 1)
        mask ^= low
    return vertices


def maximum_independent_set(graph: Graph) -> Set[int]:
    """An independent set of maximum size (NP-hard; tiny graphs only).

    The search is depth-first, including the pivot before excluding it;
    the pivot maximises ``|N(v) & candidates|``, ties to the smallest
    ``v``.  The result is the first maximum set in that order: pruning
    only skips subtrees that cannot beat the best set so far, so any
    valid bound returns the same set.

    Raises
    ------
    ValueError
        If the graph has more than ``MAX_EXACT_VERTICES`` vertices.
    """
    if graph.num_vertices > MAX_EXACT_VERTICES:
        raise ValueError(
            f"exact solver is limited to {MAX_EXACT_VERTICES} vertices; "
            f"got {graph.num_vertices}"
        )
    neighbors = [0] * graph.num_vertices
    for u, v in graph.edges():
        neighbors[u] |= 1 << v
        neighbors[v] |= 1 << u
    best = 0
    best_size = 0

    def upper_bound(candidates: int) -> int:
        """Greedy clique-cover bound: IS size <= number of cliques."""
        remaining = candidates
        cliques = 0
        while remaining:
            cliques += 1
            # Grow a clique from the lowest remaining vertex; ``common``
            # holds the remaining vertices adjacent to all its members.
            low = remaining & -remaining
            remaining ^= low
            common = remaining & neighbors[low.bit_length() - 1]
            while common:
                low = common & -common
                remaining ^= low
                common &= neighbors[low.bit_length() - 1]
        return cliques

    def branch(candidates: int, current: int, size: int) -> None:
        nonlocal best, best_size
        if not candidates:
            if size > best_size:
                best, best_size = current, size
            return
        if size + upper_bound(candidates) <= best_size:
            return
        # Branch on a maximum-degree candidate (within the candidate set),
        # ties to the smallest vertex: include it first, then exclude it.
        pivot, pivot_degree = -1, -1
        for v in _bits(candidates):
            degree = _popcount(neighbors[v] & candidates)
            if degree > pivot_degree:
                pivot, pivot_degree = v, degree
        bit = 1 << pivot
        branch(candidates & ~neighbors[pivot] & ~bit, current | bit, size + 1)
        branch(candidates & ~bit, current, size)

    branch((1 << graph.num_vertices) - 1, 0, 0)
    return set(_bits(best))


def independence_number(graph: Graph) -> int:
    """The size of a maximum independent set (tiny graphs only)."""
    return len(maximum_independent_set(graph))
