"""Tests for the wake-on-beep asynchronous-start model."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beeping.wakeup import (
    WakeupSimulation,
    random_wake_schedule,
)
from repro.core.policy import ExponentFeedbackNode
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import (
    complete_graph,
    empty_graph,
    path_graph,
    star_graph,
)


def feedback_factory(vertex):
    return ExponentFeedbackNode()


class TestConstruction:
    def test_schedule_length_checked(self):
        with pytest.raises(ValueError, match="entries"):
            WakeupSimulation(path_graph(3), feedback_factory, [0, 0], Random(1))

    def test_negative_wake_round_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            WakeupSimulation(
                path_graph(2), feedback_factory, [0, -1], Random(1)
            )

    def test_vertexless_graph_runs_with_zero_mean_beeps(self):
        result = WakeupSimulation(
            empty_graph(0), feedback_factory, [], Random(1)
        ).run()
        assert result.mis == set()
        assert result.mean_beeps_per_node == 0.0

    def test_random_schedule_bounds(self):
        schedule = random_wake_schedule(100, 7, Random(1))
        assert len(schedule) == 100
        assert all(0 <= r <= 7 for r in schedule)
        with pytest.raises(ValueError):
            random_wake_schedule(5, -1, Random(1))


class TestAllAwakeAtZero:
    """With an all-zero schedule the model degenerates to the synchronous
    one: same MIS validity, comparable round counts."""

    def test_valid_mis(self, random50):
        result = WakeupSimulation(
            random50, feedback_factory, [0] * 50, Random(2)
        ).run()
        result.verify()
        assert all(w == 0 for w in result.wake_round.values())

    def test_round_count_logarithmic_band(self, random50):
        result = WakeupSimulation(
            random50, feedback_factory, [0] * 50, Random(3)
        ).run()
        assert result.num_rounds < 60


class TestStaggeredStarts:
    @pytest.mark.parametrize("max_delay", [2, 10, 40])
    def test_valid_mis_any_delay(self, max_delay):
        graph = gnp_random_graph(40, 0.3, Random(max_delay))
        schedule = random_wake_schedule(40, max_delay, Random(5))
        result = WakeupSimulation(
            graph, feedback_factory, schedule, Random(6)
        ).run()
        result.verify()

    def test_sleeping_neighbors_retired_by_join(self):
        # Star where the hub wakes at 0 and leaves wake very late: the hub
        # joins alone, and the announcement must retire sleeping leaves.
        graph = star_graph(6)
        schedule = [0] + [50] * 6
        result = WakeupSimulation(
            graph, feedback_factory, schedule, Random(7)
        ).run()
        result.verify()
        assert 0 in result.mis
        assert result.num_rounds < 50  # leaves never had to wake on schedule

    def test_wake_on_beep_recorded(self):
        # Path 0-1: vertex 1 sleeps until 100 but 0's beeping wakes it.
        graph = Graph(2, [(0, 1)])
        result = WakeupSimulation(
            graph, feedback_factory, [0, 100], Random(8)
        ).run()
        result.verify()
        assert result.wake_round[1] < 100

    def test_isolated_sleeper_waits_for_schedule(self):
        graph = empty_graph(2)
        result = WakeupSimulation(
            graph, feedback_factory, [0, 5], Random(9)
        ).run()
        result.verify()
        assert result.mis == {0, 1}
        assert result.wake_round[1] == 5
        assert result.num_rounds >= 6

    def test_delay_costs_bounded_rounds(self):
        """Staggered starts add at most ~max_delay rounds on average."""
        graph = gnp_random_graph(40, 0.4, Random(10))
        synchronous = []
        staggered = []
        for t in range(10):
            synchronous.append(
                WakeupSimulation(
                    graph, feedback_factory, [0] * 40, Random(100 + t)
                ).run().num_rounds
            )
            schedule = random_wake_schedule(40, 10, Random(200 + t))
            staggered.append(
                WakeupSimulation(
                    graph, feedback_factory, schedule, Random(100 + t)
                ).run().num_rounds
            )
        assert sum(staggered) / 10 < sum(synchronous) / 10 + 15

    def test_complete_graph_staggered(self):
        graph = complete_graph(12)
        schedule = random_wake_schedule(12, 6, Random(11))
        result = WakeupSimulation(
            graph, feedback_factory, schedule, Random(12)
        ).run()
        result.verify()
        assert len(result.mis) == 1


@given(
    n=st.integers(min_value=1, max_value=15),
    p=st.floats(min_value=0.0, max_value=1.0),
    max_delay=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_property_wakeup_always_mis(n, p, max_delay, seed):
    graph = gnp_random_graph(n, p, Random(seed))
    schedule = random_wake_schedule(n, max_delay, Random(seed ^ 0xAA))
    result = WakeupSimulation(
        graph, feedback_factory, schedule, Random(seed ^ 0xBB)
    ).run()
    result.verify()
