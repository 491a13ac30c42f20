"""Unit tests for graph serialisation."""

import io

import pytest

from repro.graphs.graph import Graph
from repro.graphs.io import (
    edge_list_string,
    read_edge_list,
    to_dot,
    write_edge_list,
)
from repro.graphs.structured import path_graph


class TestEdgeList:
    def test_round_trip_stream(self, random50):
        buffer = io.StringIO()
        write_edge_list(random50, buffer)
        buffer.seek(0)
        assert read_edge_list(buffer) == random50

    def test_round_trip_file(self, tmp_path, random50):
        path = tmp_path / "graph.txt"
        write_edge_list(random50, path)
        assert read_edge_list(path) == random50

    def test_isolated_vertices_survive(self):
        g = Graph(5, [(0, 1)])
        assert read_edge_list(io.StringIO(edge_list_string(g))) == g

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n3 1\n# another\n0 2\n"
        g = read_edge_list(io.StringIO(text))
        assert g == Graph(3, [(0, 2)])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            read_edge_list(io.StringIO(""))

    def test_malformed_edge_rejected(self):
        with pytest.raises(ValueError, match="malformed edge"):
            read_edge_list(io.StringIO("2 1\n0 1 9\n"))

    def test_malformed_header_rejected(self):
        with pytest.raises(ValueError, match="malformed header"):
            read_edge_list(io.StringIO("3\n"))

    def test_edge_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="declares"):
            read_edge_list(io.StringIO("3 2\n0 1\n"))

    @pytest.mark.parametrize(
        "text, number, line",
        (
            ("3 1\n0 x\n", 2, "0 x"),
            ("3 1\n0 1.5\n", 2, "0 1.5"),
            ("# header next\nthree 1\n0 1\n", 2, "three 1"),
            ("3 1\n\n0 7\n", 3, "0 7"),
            ("3 1\n2 2\n", 2, "2 2"),
            ("3 2\n0 1\n", 1, "3 2"),
        ),
    )
    def test_errors_name_line_number_and_text(self, text, number, line):
        with pytest.raises(ValueError) as raised:
            read_edge_list(io.StringIO(text))
        assert f"line {number} ({line!r})" in str(raised.value)

    def test_format(self):
        assert edge_list_string(path_graph(3)) == "3 2\n0 1\n1 2\n"


class TestDot:
    def test_contains_all_edges(self, c5):
        dot = to_dot(c5)
        for u, v in c5.edges():
            assert f"{u} -- {v};" in dot

    def test_highlighting(self):
        g = path_graph(3)
        dot = to_dot(g, highlighted=[1])
        assert "1 [style=filled" in dot
        assert "0 [style=filled" not in dot

    def test_deterministic(self, random50):
        assert to_dot(random50) == to_dot(random50)

    def test_custom_name(self):
        assert to_dot(Graph(1), name="MyGraph").startswith("graph MyGraph {")


class TestNetworkxBridge:
    def test_round_trip(self, random50):
        networkx = pytest.importorskip("networkx")
        from repro.graphs.io import from_networkx, to_networkx

        nx_graph = to_networkx(random50)
        assert from_networkx(nx_graph) == random50

    def test_relabelling(self):
        networkx = pytest.importorskip("networkx")
        from repro.graphs.io import from_networkx

        nx_graph = networkx.Graph()
        nx_graph.add_edge("b", "a")
        nx_graph.add_node("c")
        g = from_networkx(nx_graph)
        assert g.num_vertices == 3
        assert g.has_edge(0, 1)
        assert g.degree(2) == 0
