"""Churn: cross-engine conformance, self-repair metrics, properties.

The churn contract (``docs/robustness.md``): events land at round start
before crashes, in the order leaves → sleeps → wakes → joins → one
deterministic resolution pass that consumes no randomness.  Because the
resolution pass draws nothing, every fleet backend and the armada stay
bit-identical under churn in both rng modes, and a fault-free run's
bytes are untouched.  The output is a valid MIS of the final *alive*
subgraph, with per-event-round repair times and a ``recovered`` flag
for graceful round-cap degradation.
"""

from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beeping.faults import ChurnSchedule, CrashSchedule, FaultModel
from repro.beeping.scheduler import BeepingSimulation
from repro.core.policy import ExponentFeedbackNode
from repro.beeping.rng import RNG_MODES
from repro.engine.fleet import ArmadaSimulator, FleetSimulator
from repro.engine.rules import FeedbackRule
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.validation import MISValidationError, verify_mis

from .conftest import BASELINE_ENGINE, ENGINE_IDS, engine_run

CHURN_EVENTS = (
    ("leave", 2, 0),
    ("leave", 2, 1),
    ("sleep", 3, 5),
    ("wake", 6, 5),
    ("join", 4, 20, (0, 3, 7)),
    ("join", 4, 21, ()),
    ("leave", 8, 20),
)

CHURN_FAULTS = FaultModel(
    churn_schedule=ChurnSchedule.from_events(CHURN_EVENTS)
)

COMBINED_FAULTS = FaultModel(
    beep_loss_probability=0.2,
    spurious_beep_probability=0.1,
    crash_schedule=CrashSchedule.from_pairs([(1, 4), (3, 9)]),
    churn_schedule=ChurnSchedule.from_events(CHURN_EVENTS),
)


def churn_graph():
    return gnp_random_graph(20, 0.3, Random(42))


def run_pair(engine_id, rng_mode, faults, seed=7701):
    """One validated churn trial on the named engine."""
    return engine_run(
        engine_id,
        churn_graph(),
        FeedbackRule,
        seed,
        validate=True,
        faults=faults,
        rng_mode=rng_mode,
    )


@pytest.mark.parametrize("faults", [CHURN_FAULTS, COMBINED_FAULTS],
                         ids=["churn-only", "combined"])
class TestChurnConformance:
    def test_engines_bit_identical(self, engine_id, rng_mode, faults):
        """Every backend must reproduce the baseline bit for bit."""
        expected = run_pair(BASELINE_ENGINE, rng_mode, faults)
        actual = run_pair(engine_id, rng_mode, faults)
        assert actual.rounds == expected.rounds
        assert actual.mis == expected.mis
        assert actual.absent == expected.absent
        assert actual.repair_rounds == expected.repair_rounds
        assert actual.recovered == expected.recovered
        assert np.array_equal(actual.beeps_by_node, expected.beeps_by_node)

    def test_result_is_mis_of_surviving_subgraph(self, engine_id, rng_mode,
                                                 faults):
        run = run_pair(engine_id, rng_mode, faults)
        universe = CHURN_FAULTS.churn_schedule.universe_graph(churn_graph())
        assert run.num_vertices == universe.num_vertices
        verify_mis(universe, run.mis, crashed=run.crashed, absent=run.absent)

    def test_repair_metrics_shape(self, engine_id, rng_mode, faults):
        run = run_pair(engine_id, rng_mode, faults)
        event_rounds = faults.churn_schedule.event_rounds()
        assert len(run.repair_rounds) == len(event_rounds)
        assert run.recovered
        for event_round, repair in zip(event_rounds, run.repair_rounds):
            assert repair >= 0
            assert event_round + repair <= run.rounds


class TestChurnSemantics:
    def test_departed_and_asleep_are_absent(self):
        run = run_pair(BASELINE_ENGINE, "counter", CHURN_FAULTS)
        # leavers 0, 1 and 20; joiner 21 stays, vertex 5 woke again.
        assert {0, 1, 20} <= run.absent
        assert 21 not in run.absent
        assert 5 not in run.absent

    def test_absent_vertices_never_in_mis(self):
        run = run_pair(BASELINE_ENGINE, "counter", CHURN_FAULTS)
        assert not (run.absent & run.mis)

    def test_clean_run_bytes_untouched(self):
        """The churn path must not perturb fault-free runs at all."""
        from repro.beeping.faults import NO_FAULTS

        for rng_mode in RNG_MODES:
            run = run_pair(BASELINE_ENGINE, rng_mode, NO_FAULTS)
            assert run.absent == set()
            assert run.repair_rounds == ()
            assert run.recovered

    def test_round_cap_degrades_gracefully(self, engine_id):
        """Hitting max_rounds mid-repair must not raise under churn:
        the run reports recovered=False instead."""
        run = engine_run(
            engine_id, churn_graph(), FeedbackRule, 7701, validate=True,
            max_rounds=3, faults=CHURN_FAULTS, rng_mode="counter",
        )
        assert not run.recovered
        assert -1 in run.repair_rounds

    def test_validation_catches_absent_member(self):
        universe = CHURN_FAULTS.churn_schedule.universe_graph(churn_graph())
        run = run_pair(BASELINE_ENGINE, "counter", CHURN_FAULTS)
        absent = sorted(run.absent)[0]
        with pytest.raises(MISValidationError, match="absent"):
            verify_mis(
                universe, run.mis | {absent},
                crashed=run.crashed, absent=run.absent,
            )


ARMADA_SCHEDULE = ChurnSchedule.from_events(
    [("leave", 2, 0), ("sleep", 3, 1), ("wake", 5, 1)]
)


class TestArmadaChurn:
    @pytest.mark.parametrize(
        "faults",
        [
            FaultModel(churn_schedule=ARMADA_SCHEDULE),
            FaultModel(
                beep_loss_probability=0.2,
                spurious_beep_probability=0.1,
                crash_schedule=CrashSchedule.from_pairs([(1, 4), (3, 9)]),
                churn_schedule=ARMADA_SCHEDULE,
            ),
        ],
        ids=["churn-only", "combined"],
    )
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_armada_matches_fleet(self, backend, faults):
        graphs = [churn_graph(), gnp_random_graph(20, 0.4, Random(43))]
        seed_rows = [[11, 12], [13]]
        armada = ArmadaSimulator(graphs, backend=backend).run_armada(
            FeedbackRule(), seed_rows, validate=True, faults=faults
        )
        for graph, seeds, run in zip(graphs, seed_rows, armada):
            fleet = FleetSimulator(graph, backend=backend).run_fleet(
                FeedbackRule(), seeds, validate=True, faults=faults,
                rng_mode="counter", record_beeps=True,
            )
            for t in range(len(seeds)):
                a, f = run.trial_run(t), fleet.trial_run(t)
                assert a.rounds == f.rounds
                assert a.mis == f.mis
                assert a.absent == f.absent
                assert a.repair_rounds == f.repair_rounds
                assert np.array_equal(a.beeps_by_node, f.beeps_by_node)


def random_churn_schedule(draw, n):
    """A hypothesis-drawn coherent churn timeline over an n-vertex base."""
    events = []
    vertices = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            unique=True, min_size=0, max_size=min(4, n),
        )
    )
    for vertex in vertices:
        kind = draw(st.sampled_from(["leave", "sleep", "sleep-wake"]))
        start = draw(st.integers(min_value=0, max_value=6))
        if kind == "leave":
            events.append(("leave", start, vertex))
        elif kind == "sleep":
            events.append(("sleep", start, vertex))
        else:
            events.append(("sleep", start, vertex))
            events.append(("wake", start + draw(
                st.integers(min_value=1, max_value=4)
            ), vertex))
    joins = draw(st.integers(min_value=0, max_value=2))
    for j in range(joins):
        vertex = n + j
        neighbors = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                unique=True, min_size=0, max_size=3,
            )
        )
        events.append(
            ("join", draw(st.integers(min_value=0, max_value=6)), vertex,
             tuple(neighbors))
        )
    return ChurnSchedule.from_events(events)


@st.composite
def churn_cases(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    graph_seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    run_seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    schedule = random_churn_schedule(draw, n)
    return n, p, graph_seed, run_seed, schedule


@given(case=churn_cases())
@settings(max_examples=25, deadline=None)
def test_every_engine_repairs_to_valid_mis(case):
    """Property: under any coherent churn timeline, every engine ends on
    a valid MIS of the surviving subgraph, bit-identical across engines
    in both rng modes."""
    n, p, graph_seed, run_seed, schedule = case
    graph = gnp_random_graph(n, p, Random(graph_seed))
    faults = FaultModel(churn_schedule=schedule)
    for rng_mode in RNG_MODES:
        baseline = None
        for engine_id in ENGINE_IDS:
            run = engine_run(
                engine_id, graph, FeedbackRule, run_seed,
                validate=True, faults=faults, rng_mode=rng_mode,
            )
            if baseline is None:
                baseline = run
            else:
                assert run.rounds == baseline.rounds
                assert run.mis == baseline.mis
                assert run.absent == baseline.absent
                assert run.repair_rounds == baseline.repair_rounds
        universe = schedule.universe_graph(graph)
        verify_mis(universe, baseline.mis, absent=baseline.absent)


def reference_run(graph, faults, seed):
    """The per-node reference engine's run of the paper's algorithm."""
    return BeepingSimulation(
        graph, lambda vertex: ExponentFeedbackNode(), Random(seed),
        faults=faults,
    ).run()


class TestReferenceChurn:
    """The per-node reference applies the same churn contract."""

    def test_repairs_to_valid_mis_of_the_alive_subgraph(self):
        result = reference_run(churn_graph(), CHURN_FAULTS, 7701)
        result.verify()
        # 0, 1 and the joiner 20 left; 5 slept and woke again.
        assert result.absent == {0, 1, 20}
        # The joiner 21 declared no neighbours, so it must join.
        assert 21 in result.mis
        assert result.recovered
        assert len(result.repair_rounds) == len(
            CHURN_FAULTS.churn_schedule.event_rounds()
        )


@given(case=churn_cases())
@settings(max_examples=25, deadline=None)
def test_reference_repairs_to_valid_mis(case):
    """Property: under any coherent churn timeline the reference ends on a
    valid MIS of the surviving universe subgraph."""
    n, p, graph_seed, run_seed, schedule = case
    graph = gnp_random_graph(n, p, Random(graph_seed))
    result = reference_run(graph, FaultModel(churn_schedule=schedule), run_seed)
    result.verify()
    verify_mis(
        schedule.universe_graph(graph), result.mis, absent=result.absent
    )

