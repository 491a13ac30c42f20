"""Tests for terminal graph rendering."""

from repro.graphs.structured import grid_graph, path_graph
from repro.viz.graph_render import render_grid_mis, render_mis_listing, to_dot


class TestGridRender:
    def test_marks_match_membership(self):
        text = render_grid_mis(2, 3, mis=[0, 4])
        rows = text.split("\n")
        assert rows[0] == "■ · ·"
        assert rows[1] == "· ■ ·"

    def test_full_and_empty(self):
        assert render_grid_mis(1, 2, mis=[0, 1]) == "■ ■"
        assert render_grid_mis(1, 2, mis=[]) == "· ·"


class TestListing:
    def test_roles(self):
        g = path_graph(3)
        text = render_mis_listing(g, [0, 2])
        lines = text.split("\n")
        assert "IN MIS" in lines[0]
        assert "covered by 0" in lines[1]
        assert "IN MIS" in lines[2]

    def test_uncovered_flagged(self):
        g = path_graph(3)
        text = render_mis_listing(g, [0])
        assert "UNCOVERED" in text

    def test_degrees_shown(self):
        g = grid_graph(2, 2)
        text = render_mis_listing(g, [0, 3])
        assert "deg=2" in text


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

