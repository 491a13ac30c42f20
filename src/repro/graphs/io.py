"""Graph serialisation: edge lists, DOT, and optional networkx bridging."""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, Optional, Set, TextIO, Tuple, Union

from repro.graphs.graph import Graph

PathLike = Union[str, Path]


def write_edge_list(graph: Graph, destination: Union[PathLike, TextIO]) -> None:
    """Write a graph as a plain edge list.

    Format: first line ``n m``, then one ``u v`` line per edge in canonical
    order.  Isolated vertices survive the round-trip because ``n`` is stored
    explicitly.
    """
    if hasattr(destination, "write"):
        _write_edge_list_stream(graph, destination)  # type: ignore[arg-type]
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            _write_edge_list_stream(graph, handle)


def _write_edge_list_stream(graph: Graph, stream: TextIO) -> None:
    stream.write(f"{graph.num_vertices} {graph.num_edges}\n")
    for u, v in graph.edges():
        stream.write(f"{u} {v}\n")


def read_edge_list(source: Union[PathLike, TextIO]) -> Graph:
    """Read a graph written by :func:`write_edge_list`.

    Blank lines and ``#`` comment lines are ignored.
    """
    if hasattr(source, "read"):
        return _read_edge_list_stream(source)  # type: ignore[arg-type]
    with open(source, "r", encoding="utf-8") as handle:
        return _read_edge_list_stream(handle)


def _read_edge_list_stream(stream: TextIO) -> Graph:
    """Parse an ``n m`` header line, then one ``u v`` line per edge.

    Blank lines and ``#`` comments are skipped.  Every rejection is a
    ``ValueError`` naming the offending line's 1-based number and text —
    a miscounted edge total names the header line.
    """
    header: Optional[Tuple[int, str]] = None
    edges = []
    for number, raw_line in enumerate(stream, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = (number, line)
            num_vertices, num_edges = _int_pair(number, line, "header", "n m")
            if num_vertices < 0 or num_edges < 0:
                raise _line_error(number, line, "header counts must be >= 0")
            continue
        u, v = _int_pair(number, line, "edge", "u v")
        if u == v:
            raise _line_error(number, line, f"self-loop at vertex {u}")
        for w in (u, v):
            if not 0 <= w < num_vertices:
                raise _line_error(
                    number, line,
                    f"vertex {w} out of range for {num_vertices} vertices",
                )
        edges.append((u, v))
    if header is None:
        raise ValueError("edge list is empty: missing 'n m' header line")
    graph = Graph(num_vertices, edges)
    if graph.num_edges != num_edges:
        raise _line_error(
            *header,
            f"header declares {num_edges} edges but {graph.num_edges} "
            "were read",
        )
    return graph


def _line_error(number: int, line: str, problem: str) -> ValueError:
    """A parse error naming its 1-based line number and the line's text."""
    return ValueError(f"line {number} ({line!r}): {problem}")


def _int_pair(
    number: int, line: str, kind: str, shape: str
) -> Tuple[int, int]:
    """The two integers of a header or edge line."""
    parts = line.split()
    if len(parts) == 2:
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            pass
    raise _line_error(
        number, line, f"malformed {kind} line, expected two integers {shape!r}"
    )


def edge_list_string(graph: Graph) -> str:
    """The edge-list serialisation as a string (round-trips via
    :func:`read_edge_list`)."""
    buffer = io.StringIO()
    write_edge_list(graph, buffer)
    return buffer.getvalue()


def to_dot(
    graph: Graph,
    highlighted: Iterable[int] = (),
    name: str = "G",
) -> str:
    """Render a graph in Graphviz DOT format.

    ``highlighted`` vertices (typically an MIS) are filled; everything else
    is drawn plain.  The output is deterministic.
    """
    highlighted_set: Set[int] = set(highlighted)
    lines = [f"graph {name} {{"]
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


def from_networkx(nx_graph) -> Graph:
    """Convert a networkx graph (optional convenience; relabels vertices to
    ``0..n-1`` in sorted node order)."""
    nodes = sorted(nx_graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in nx_graph.edges() if u != v]
    return Graph(len(nodes), edges)


def to_networkx(graph: Graph):
    """Convert to a networkx graph (imports networkx lazily)."""
    import networkx as nx

    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.vertices())
    nx_graph.add_edges_from(graph.edges())
    return nx_graph
