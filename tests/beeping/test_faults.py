"""Unit tests for fault models."""

import pytest

from repro.beeping.faults import (
    NO_FAULTS,
    ChurnEvent,
    ChurnSchedule,
    CrashSchedule,
    FaultModel,
    parse_churn_spec,
    parse_crash_spec,
)
from repro.graphs.graph import Graph


class TestCrashSchedule:
    def test_empty_by_default(self):
        schedule = CrashSchedule()
        assert schedule.is_empty()
        assert schedule.crashed_at(0) == frozenset()

    def test_from_pairs(self):
        schedule = CrashSchedule.from_pairs([(0, 3), (0, 5), (2, 1)])
        assert schedule.crashed_at(0) == frozenset({3, 5})
        assert schedule.crashed_at(2) == frozenset({1})
        assert schedule.crashed_at(1) == frozenset()
        assert not schedule.is_empty()

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            CrashSchedule.from_pairs([(-1, 0)])

    def test_negative_vertex_rejected(self):
        """A negative id would silently vanish from the vectorised
        engines' masks while the reference scheduler would index with
        it — from_pairs must reject it for every engine."""
        with pytest.raises(ValueError, match="vertex"):
            CrashSchedule.from_pairs([(0, -3)])


class TestFaultModel:
    def test_default_is_fault_free(self):
        assert FaultModel().is_fault_free
        assert NO_FAULTS.is_fault_free

    def test_loss_makes_faulty(self):
        assert not FaultModel(beep_loss_probability=0.1).is_fault_free

    def test_spurious_makes_faulty(self):
        assert not FaultModel(spurious_beep_probability=0.1).is_fault_free

    def test_crashes_make_faulty(self):
        model = FaultModel(
            crash_schedule=CrashSchedule.from_pairs([(1, 0)])
        )
        assert not model.is_fault_free

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultModel(beep_loss_probability=1.5)
        with pytest.raises(ValueError):
            FaultModel(spurious_beep_probability=-0.2)

    def test_frozen(self):
        with pytest.raises(Exception):
            NO_FAULTS.beep_loss_probability = 0.5

    def test_churn_makes_faulty(self):
        model = FaultModel(
            churn_schedule=ChurnSchedule.from_events([("leave", 2, 0)])
        )
        assert not model.is_fault_free


class TestChurnEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ChurnEvent("explode", 1, 0)

    def test_rejects_negative_round_and_vertex(self):
        with pytest.raises(ValueError, match="round"):
            ChurnEvent("leave", -1, 0)
        with pytest.raises(ValueError, match="vertex"):
            ChurnEvent("leave", 1, -2)

    def test_only_joins_carry_neighbours(self):
        with pytest.raises(ValueError, match="neighbour list"):
            ChurnEvent("leave", 1, 0, neighbors=(2,))

    def test_join_neighbours_canonicalised(self):
        event = ChurnEvent("join", 3, 10, neighbors=(5, 2, 5))
        assert event.neighbors == (2, 5)
        assert event.to_tuple() == ("join", 3, 10, (2, 5))

    def test_join_rejects_self_loop(self):
        with pytest.raises(ValueError, match="neighbour itself"):
            ChurnEvent("join", 3, 10, neighbors=(10,))


class TestChurnSchedule:
    def test_empty_by_default(self):
        schedule = ChurnSchedule()
        assert schedule.is_empty()
        assert schedule.last_event_round == -1
        assert schedule.event_rounds() == ()

    def test_events_sorted_canonically(self):
        schedule = ChurnSchedule.from_events(
            [("wake", 5, 1), ("sleep", 2, 1), ("leave", 2, 0)]
        )
        assert schedule.to_tuples() == (
            ("leave", 2, 0), ("sleep", 2, 1), ("wake", 5, 1),
        )
        assert schedule.event_rounds() == (2, 5)
        assert schedule.last_event_round == 5

    def test_events_at_always_has_all_kinds(self):
        schedule = ChurnSchedule.from_events([("leave", 2, 0)])
        events = schedule.events_at(2)
        assert set(events) == {"leave", "sleep", "wake", "join"}
        assert events["leave"] == frozenset({0})
        assert events["join"] == frozenset()

    def test_rejects_two_events_same_round_and_vertex(self):
        with pytest.raises(ValueError, match="two churn events"):
            ChurnSchedule.from_events([("sleep", 2, 1), ("leave", 2, 1)])

    def test_rejects_wake_without_sleep(self):
        with pytest.raises(ValueError, match="wake"):
            ChurnSchedule.from_events([("wake", 2, 1)])

    def test_rejects_double_leave(self):
        with pytest.raises(ValueError, match="leaves more than once"):
            ChurnSchedule.from_events([("leave", 2, 1), ("leave", 5, 1)])

    def test_rejects_events_before_join(self):
        with pytest.raises(ValueError, match="before its join"):
            ChurnSchedule.from_events([("sleep", 1, 9), ("join", 4, 9, ())])

    def test_rejects_events_after_leave(self):
        with pytest.raises(ValueError, match="after its leave"):
            ChurnSchedule.from_events([("leave", 2, 1), ("sleep", 4, 1)])

    def test_universe_graph_appends_joiners(self):
        base = Graph(4, [(0, 1), (1, 2), (2, 3)])
        schedule = ChurnSchedule.from_events(
            [("join", 3, 4, (0, 2)), ("join", 5, 5, (4,))]
        )
        universe = schedule.universe_graph(base)
        assert universe.num_vertices == 6
        assert set(universe.neighbors(4)) == {0, 2, 5}
        assert set(universe.neighbors(5)) == {4}

    def test_universe_graph_rejects_non_contiguous_join_ids(self):
        base = Graph(4, [(0, 1)])
        schedule = ChurnSchedule.from_events([("join", 3, 7, ())])
        with pytest.raises(ValueError, match="contiguous block"):
            schedule.universe_graph(base)

    def test_universe_graph_rejects_out_of_range_targets(self):
        base = Graph(4, [(0, 1)])
        schedule = ChurnSchedule.from_events([("leave", 3, 9)])
        with pytest.raises(ValueError, match="outside"):
            schedule.universe_graph(base)


class TestParseCrashSpec:
    def test_parses_pairs(self):
        assert parse_crash_spec(["2:4", "0:1"]) == ((2, 4), (0, 1))

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="ROUND:VERTEX"):
            parse_crash_spec(["2"])
        with pytest.raises(ValueError, match="integer"):
            parse_crash_spec(["a:b"])
        with pytest.raises(ValueError, match=">= 0"):
            parse_crash_spec(["2:-1"])


class TestParseChurnSpec:
    def test_parses_grammar(self):
        events = parse_churn_spec(
            ["leave:2:0", "sleep:3:5", "wake:6:5", "join:4:20:0+3+7"]
        )
        assert ("leave", 2, 0) in events
        assert ("join", 4, 20, (0, 3, 7)) in events

    def test_join_may_declare_no_neighbours(self):
        events = parse_churn_spec(["join:4:20:"])
        assert events == (("join", 4, 20, ()),)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="must start with one of"):
            parse_churn_spec(["vanish:2:0"])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="leave:ROUND:VERTEX"):
            parse_churn_spec(["leave:2"])
        with pytest.raises(ValueError, match="join:ROUND:VERTEX"):
            parse_churn_spec(["join:2:5"])

    def test_rejects_non_integer_fields(self):
        with pytest.raises(ValueError, match="integer"):
            parse_churn_spec(["leave:two:0"])
        with pytest.raises(ValueError, match="integer"):
            parse_churn_spec(["join:2:5:a+b"])

    def test_rejects_incoherent_timeline(self):
        with pytest.raises(ValueError, match="wake"):
            parse_churn_spec(["wake:2:1"])
