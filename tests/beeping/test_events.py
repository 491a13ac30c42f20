"""Unit tests for trace events."""

import pytest

from repro.beeping.events import RoundEvent, Trace


def _round(index, beepers=(), heard=(), joined=(), retired=()):
    return RoundEvent(
        round_index=index,
        beepers=frozenset(beepers),
        heard=frozenset(heard),
        joined=frozenset(joined),
        retired=frozenset(retired),
    )


class TestTrace:
    def test_append_in_order(self):
        trace = Trace()
        trace.append_round(_round(0))
        trace.append_round(_round(1))
        assert trace.num_rounds == 2

    def test_out_of_order_rejected(self):
        trace = Trace()
        with pytest.raises(ValueError, match="out of order"):
            trace.append_round(_round(3))

    def test_joins_extracted(self):
        trace = Trace()
        trace.append_round(_round(0, joined={5, 2}))
        assert [(e.round_index, e.vertex) for e in trace.joins] == [
            (0, 2),
            (0, 5),
        ]

    def test_retirements(self):
        trace = Trace()
        trace.append_retirement(4, vertex=3, cause=8)
        event = trace.retirements[0]
        assert (event.round_index, event.vertex, event.cause) == (4, 3, 8)

    def test_probability_recording_flag(self):
        assert Trace().record_probabilities is False
        assert Trace(record_probabilities=True).record_probabilities is True
