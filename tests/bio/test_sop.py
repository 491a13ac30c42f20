"""Tests for SOP pattern analysis."""

import pytest

from repro.bio.sop import analyze_sop_pattern, select_sops_by_delta
from repro.graphs.graph import Graph
from repro.graphs.structured import path_graph


class TestSelection:
    def test_threshold_selection(self):
        deltas = [0.95, 0.02, 0.88, 0.1]
        assert select_sops_by_delta(deltas) == {0, 2}

    def test_threshold_is_the_midpoint(self):
        assert select_sops_by_delta([0.4, 0.5, 0.6]) == {2}

    def test_empty(self):
        assert select_sops_by_delta([]) == set()


class TestAnalysis:
    def test_perfect_pattern(self):
        graph = path_graph(5)
        report = analyze_sop_pattern(graph, {0, 2, 4})
        assert report.is_independent
        assert report.is_maximal
        assert report.is_mis
        assert report.num_sops == 3
        assert report.num_cells == 5

    def test_violating_pattern(self):
        graph = path_graph(4)
        report = analyze_sop_pattern(graph, {0, 1})
        assert not report.is_independent
        assert report.adjacent_sop_pairs == 1
        assert not report.is_mis

    def test_non_maximal_pattern(self):
        graph = path_graph(5)
        report = analyze_sop_pattern(graph, {0})
        assert report.is_independent
        assert report.uncovered_cells == 3
        assert not report.is_maximal

    def test_delta_separation(self):
        graph = path_graph(3)
        report = analyze_sop_pattern(graph, {1}, [0.1, 0.9, 0.2])
        assert report.delta_separation == pytest.approx(0.7)

    def test_separation_zero_without_levels(self):
        graph = path_graph(3)
        assert analyze_sop_pattern(graph, {1}).delta_separation == 0.0

    def test_separation_zero_when_all_sops(self):
        graph = Graph(2)
        report = analyze_sop_pattern(graph, {0, 1}, [0.9, 0.8])
        assert report.delta_separation == 0.0

    def test_negative_separation_for_overlap(self):
        graph = path_graph(4)
        report = analyze_sop_pattern(graph, {0, 2}, [0.6, 0.7, 0.9, 0.1])
        assert report.delta_separation < 0
