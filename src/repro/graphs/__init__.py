"""Graph substrate for the MIS reproduction.

This package provides the graph data structure and every generator used in
the paper's experiments, implemented from scratch:

- :class:`~repro.graphs.graph.Graph` — immutable undirected simple graph.
- :class:`~repro.graphs.graph.GraphBuilder` — mutable construction helper.
- :mod:`~repro.graphs.random_graphs` — G(n, p), random geometric and
  small-world graphs.
- :mod:`~repro.graphs.structured` — empty and complete graphs, paths,
  cycles, stars, grids and hexagonal lattices.
- :mod:`~repro.graphs.cliques` — disjoint-clique families, including the
  lower-bound family of Theorem 1.
- :mod:`~repro.graphs.validation` — independence / maximality predicates,
  :func:`verify_mis` and its batched form :func:`verify_mis_rows`.
"""

from repro.graphs.graph import Graph, GraphBuilder
from repro.graphs.random_graphs import (
    gnp_random_graph,
    random_geometric_graph,
    watts_strogatz_graph,
)
from repro.graphs.structured import (
    complete_graph,
    cycle_graph,
    empty_graph,
    grid_graph,
    hex_lattice_graph,
    path_graph,
    star_graph,
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
    "watts_strogatz_graph",
    "complete_graph",
    "cycle_graph",
    "disjoint_cliques",
    "empty_graph",
    "gnp_random_graph",
    "grid_graph",
    "hex_lattice_graph",
    "independent_set_violations",
    "is_dominating_for_uncovered",
    "is_independent_set",
    "is_maximal_independent_set",
    "path_graph",
    "random_geometric_graph",
    "star_graph",
    "theorem1_family",
    "uncovered_vertices",
    "verify_mis",
    "verify_mis_rows",
]
