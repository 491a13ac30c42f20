"""Structural graph metrics.

Used by the experiment harness for workload characterisation (see
docs/paper.md) and by tests as independent cross-checks on the
generators (e.g. a torus must have girth-4 clustering 0, a clique
clustering 1).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.graphs.graph import Graph


def degree_histogram(graph: Graph) -> List[int]:
    """``histogram[d]`` = number of vertices with degree ``d``."""
    histogram = [0] * (graph.max_degree() + 1)
    for v in graph.vertices():
        histogram[graph.degree(v)] += 1
    return histogram


def mean_degree(graph: Graph) -> float:
    """Average degree ``2m / n`` (0.0 for the empty graph)."""
    if graph.num_vertices == 0:
        return 0.0
    return 2.0 * graph.num_edges / graph.num_vertices


def local_clustering(graph: Graph, vertex: int) -> float:
    """The fraction of a vertex's neighbour pairs that are adjacent.

    0.0 by convention for vertices of degree < 2.
    """
    neighbors = graph.neighbors(vertex)
    k = len(neighbors)
    if k < 2:
        return 0.0
    links = 0
    for i, u in enumerate(neighbors):
        u_set = graph.neighbor_set(u)
        for w in neighbors[i + 1:]:
            if w in u_set:
                links += 1
    return 2.0 * links / (k * (k - 1))


def average_clustering(graph: Graph) -> float:
    """Mean local clustering coefficient over all vertices."""
    if graph.num_vertices == 0:
        return 0.0
    return sum(
        local_clustering(graph, v) for v in graph.vertices()
    ) / graph.num_vertices


def bfs_distances(graph: Graph, source: int) -> List[Optional[int]]:
    """Hop distances from ``source``; ``None`` for unreachable vertices."""
    distances: List[Optional[int]] = [None] * graph.num_vertices
    distances[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if distances[w] is None:
                distances[w] = distances[u] + 1
                queue.append(w)
    return distances


def eccentricity(graph: Graph, vertex: int) -> Optional[int]:
    """Maximum distance from ``vertex``; ``None`` if the graph is
    disconnected from it."""
    distances = bfs_distances(graph, vertex)
    if any(d is None for d in distances):
        return None
    return max(d for d in distances if d is not None)


def diameter(graph: Graph) -> Optional[int]:
    """The largest eccentricity; ``None`` for disconnected or empty graphs.

    O(n·m): fine for the experiment sizes in this repository.
    """
    if graph.num_vertices == 0:
        return None
    worst = 0
    for v in graph.vertices():
        ecc = eccentricity(graph, v)
        if ecc is None:
            return None
        worst = max(worst, ecc)
    return worst


def workload_summary(graph: Graph) -> Dict[str, float]:
    """The characterisation the harness prints for each workload."""
    return {
        "vertices": float(graph.num_vertices),
        "edges": float(graph.num_edges),
        "density": graph.density(),
        "mean_degree": mean_degree(graph),
        "max_degree": float(graph.max_degree()),
        "clustering": average_clustering(graph),
        "components": float(len(graph.connected_components())),
    }
