"""Tests for the round-by-round trace animation."""

from random import Random

import pytest

from repro.beeping.events import Trace
from repro.beeping.scheduler import BeepingSimulation
from repro.core.policy import ExponentFeedbackNode
from repro.graphs.random_graphs import gnp_random_graph
from repro.viz.animation import render_animation, render_frame


@pytest.fixture(scope="module")
def traced():
    graph = gnp_random_graph(16, 0.3, Random(21))
    trace = Trace()
    result = BeepingSimulation(
        graph, lambda v: ExponentFeedbackNode(), Random(22), trace=trace
    ).run()
    return graph, trace, result


class TestRenderFrame:
    def test_header_counts_match_event(self, traced):
        _graph, trace, _result = traced
        event = trace.rounds[0]
        frame = render_frame(trace, 0, 16)
        assert f"beeps={len(event.beepers)}" in frame
        assert f"joins={len(event.joined)}" in frame

    def test_glyph_count(self, traced):
        _graph, trace, _result = traced
        frame = render_frame(trace, 0, 16, columns=4)
        body = frame.split("\n")[1:]
        assert len(body) == 4
        glyphs = [g for line in body for g in line.split(" ")]
        assert len(glyphs) == 16

    def test_out_of_range_round(self, traced):
        _graph, trace, _result = traced
        with pytest.raises(ValueError):
            render_frame(trace, trace.num_rounds, 16)

    def test_final_frame_shows_mis_membership(self, traced):
        _graph, trace, result = traced
        last = trace.num_rounds - 1
        frame = render_frame(trace, last, 16, columns=16)
        glyphs = frame.split("\n")[1].split(" ")
        for v in result.mis:
            assert glyphs[v] in ("#", "*")  # already-in or joining now


class TestRenderAnimation:
    def test_contains_all_frames(self, traced):
        _graph, trace, _result = traced
        text = render_animation(trace, 16)
        for t in range(trace.num_rounds):
            assert f"round {t}:" in text
        assert "legend:" in text
