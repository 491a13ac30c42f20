"""Graph substrate for the MIS reproduction.

This package provides the graph data structure and every generator used in
the paper's experiments, implemented from scratch:

- :class:`~repro.graphs.graph.Graph` — immutable undirected simple graph.
- :class:`~repro.graphs.graph.GraphBuilder` — mutable construction helper.
- :mod:`~repro.graphs.random_graphs` — G(n, p), G(n, m), random geometric,
  random trees, planted independent sets.
- :mod:`~repro.graphs.structured` — paths, cycles, grids, tori, stars,
  hypercubes, complete (bi)partite graphs and hexagonal lattices.
- :mod:`~repro.graphs.cliques` — disjoint-clique families, including the
  lower-bound family of Theorem 1.
- :mod:`~repro.graphs.validation` — independence / maximality predicates,
  :func:`verify_mis` and its batched form :func:`verify_mis_rows`.
- :mod:`~repro.graphs.io` — edge-list and DOT serialisation.
"""

from repro.graphs.graph import Graph, GraphBuilder
from repro.graphs.random_graphs import (
    barabasi_albert_graph,
    gnm_random_graph,
    gnp_random_graph,
    planted_independent_set_graph,
    random_bipartite_graph,
    random_geometric_graph,
    random_tree,
    watts_strogatz_graph,
)
from repro.graphs.structured import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    grid_graph,
    hex_lattice_graph,
    hypercube_graph,
    path_graph,
    star_graph,
    torus_grid_graph,
)
from repro.graphs.cliques import disjoint_cliques, theorem1_family
from repro.graphs.validation import (
    MISValidationError,
    independent_set_violations,
    is_dominating_for_uncovered,
    is_independent_set,
    is_maximal_independent_set,
    uncovered_vertices,
    verify_mis,
    verify_mis_rows,
)

__all__ = [
    "Graph",
    "GraphBuilder",
    "MISValidationError",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "disjoint_cliques",
    "empty_graph",
    "gnm_random_graph",
    "gnp_random_graph",
    "grid_graph",
    "hex_lattice_graph",
    "hypercube_graph",
    "independent_set_violations",
    "is_dominating_for_uncovered",
    "is_independent_set",
    "is_maximal_independent_set",
    "path_graph",
    "planted_independent_set_graph",
    "random_bipartite_graph",
    "random_geometric_graph",
    "random_tree",
    "star_graph",
    "theorem1_family",
    "torus_grid_graph",
    "uncovered_vertices",
    "verify_mis",
    "verify_mis_rows",
]
