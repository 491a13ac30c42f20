"""Graph rendering for the terminal.

Three small renderers:

- :func:`render_grid_mis` — a grid graph with MIS membership marked, the
  closest terminal analogue of Figure 1's node colouring;
- :func:`render_mis_listing` — a vertex-by-vertex listing with MIS and
  coverage annotations;
- :func:`to_dot` — Graphviz DOT text with the MIS filled, for drawing
  Figure 1 outside the terminal.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.graphs.graph import Graph


def render_grid_mis(rows: int, cols: int, mis: Iterable[int]) -> str:
    """A ``rows x cols`` grid with ``■`` for MIS cells and ``·`` otherwise.

    Vertex numbering must match :func:`repro.graphs.grid_graph`
    (``v = r * cols + c``).
    """
    mis_set = set(mis)
    lines = []
    for r in range(rows):
        cells = []
        for c in range(cols):
            v = r * cols + c
            cells.append("■" if v in mis_set else "·")
        lines.append(" ".join(cells))
    return "\n".join(lines)


def render_mis_listing(graph: Graph, mis: Iterable[int]) -> str:
    """One line per vertex: membership, degree and the covering neighbour."""
    mis_set: Set[int] = set(mis)
    lines = []
    for v in graph.vertices():
        if v in mis_set:
            role = "IN MIS"
        else:
            coverers = [w for w in graph.neighbors(v) if w in mis_set]
            role = f"covered by {coverers[0]}" if coverers else "UNCOVERED"
        lines.append(
            f"v{v:<4d} deg={graph.degree(v):<4d} {role}"
        )
    return "\n".join(lines)


def to_dot(graph: Graph, highlighted: Iterable[int] = ()) -> str:
    """Render a graph in Graphviz DOT format.

    ``highlighted`` vertices (typically an MIS) are filled; everything else
    is drawn plain.  The output is deterministic.
    """
    highlighted_set: Set[int] = set(highlighted)
    lines = ["graph G {"]
    lines.append("  node [shape=circle];")
    for v in graph.vertices():
        if v in highlighted_set:
            lines.append(
                f'  {v} [style=filled, fillcolor="black", fontcolor="white"];'
            )
        else:
            lines.append(f"  {v};")
    for u, v in graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
