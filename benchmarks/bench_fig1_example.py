"""Figure 1A: an MIS selected from a 20-node random graph.

Regenerates the figure's artefact — a verified MIS on a sparse 20-node
random graph, selected by the paper's own algorithm — and renders it.
"""

from __future__ import annotations

from benchmarks.conftest import report
from repro.experiments.figures import figure1_example
from repro.graphs.validation import verify_mis
from repro.viz.graph_render import render_mis_listing, to_dot


def test_fig1_regenerate(benchmark):
    graph, mis = benchmark(figure1_example)
    verify_mis(graph, mis)


def test_fig1_report(benchmark):
    graph, mis = figure1_example()
    benchmark(verify_mis, graph, mis)
    body = (
        f"graph: 20 nodes, {graph.num_edges} edges\n"
        f"MIS ({len(mis)} nodes): {sorted(mis)}\n\n"
        f"{render_mis_listing(graph, mis)}\n\n"
        f"Graphviz DOT (render with `dot -Tpng`):\n{to_dot(graph, mis)}"
    )
    report("FIGURE 1A: an MIS of a 20-node random graph", body)
    # The paper's example picks 5 of 20 vertices; sparse 20-node graphs
    # give MISes of comparable size.
    assert 3 <= len(mis) <= 12
