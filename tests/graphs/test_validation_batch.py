"""The batched MIS check against the one-trial ``verify_mis`` oracle.

``verify_mis_rows`` certifies every trial of an armada run at once, so it
must reject exactly the slots ``verify_mis`` rejects, report the lowest
one with ``verify_mis``'s own message, and stay independent of the
engine code it certifies.
"""

import ast
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.validation as validation
from repro.beeping.faults import ChurnSchedule, CrashSchedule, FaultModel
from repro.engine.fleet import ArmadaSimulator
from repro.engine.messages import LubyPermutationRule, MessageArmadaSimulator
from repro.engine.rules import FeedbackRule
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import empty_graph, grid_graph
from repro.graphs.validation import (
    MISValidationError,
    invalid_mis_rows,
    verify_mis,
    verify_mis_rows,
)
from repro.telemetry import probes


def row_set(mask, slot):
    return set() if mask is None else set(np.flatnonzero(mask[slot]).tolist())


def row_recovered(recovered, slot):
    return recovered is None or bool(recovered[slot])


def oracle_verdicts(graph, membership, crashed, absent, recovered):
    """Per slot: whether ``verify_mis`` rejects it (an unrecovered slot
    skips only maximality)."""
    verdicts = []
    for slot in range(membership.shape[0]):
        try:
            verify_mis(
                graph,
                row_set(membership, slot),
                crashed=row_set(crashed, slot),
                absent=row_set(absent, slot),
                recovered=row_recovered(recovered, slot),
            )
        except MISValidationError:
            verdicts.append(True)
        else:
            verdicts.append(False)
    return np.array(verdicts, dtype=bool)


def oracle_error(graph, membership, crashed, absent, slot, recovered=None):
    """``verify_mis``'s message for one slot."""
    with pytest.raises(MISValidationError) as caught:
        verify_mis(
            graph,
            row_set(membership, slot),
            crashed=row_set(crashed, slot),
            absent=row_set(absent, slot),
            recovered=row_recovered(recovered, slot),
        )
    return str(caught.value)


def assert_agrees(graph, membership, crashed=None, absent=None, recovered=None):
    expected = oracle_verdicts(graph, membership, crashed, absent, recovered)
    got = invalid_mis_rows(graph, membership, crashed, absent, recovered)
    assert got.dtype == bool and got.shape == expected.shape
    assert got.tolist() == expected.tolist()
    if not expected.any():
        verify_mis_rows(graph, membership, crashed, absent, recovered)
        return
    slot = int(np.flatnonzero(expected)[0])
    with pytest.raises(MISValidationError) as caught:
        verify_mis_rows(graph, membership, crashed, absent, recovered)
    assert caught.value.slot == slot
    assert str(caught.value) == oracle_error(
        graph, membership, crashed, absent, slot, recovered
    )


# ---------------------------------------------------------------- graphs


@st.composite
def graphs(draw):
    kind = draw(st.sampled_from(["gnp", "grid", "edgeless", "isolated"]))
    if kind == "grid":
        return grid_graph(draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    n = draw(st.integers(0, 12))
    if kind == "edgeless":
        return empty_graph(n)
    seed = draw(st.integers(0, 2**16))
    p = draw(st.sampled_from([0.1, 0.3, 0.5, 0.9]))
    if kind == "gnp":
        return gnp_random_graph(n, p, Random(seed))
    # A G(k, p) core plus n - k isolated vertices.
    core = gnp_random_graph(draw(st.integers(0, n)), p, Random(seed))
    return Graph(n, list(core.edges()))


def greedy_mis(graph, rng):
    order = list(range(graph.num_vertices))
    rng.shuffle(order)
    chosen = np.zeros(graph.num_vertices, dtype=bool)
    blocked = np.zeros(graph.num_vertices, dtype=bool)
    for v in order:
        if not blocked[v]:
            chosen[v] = blocked[v] = True
            blocked[list(graph.neighbors(v))] = True
    return chosen


@st.composite
def batches(draw):
    """A graph, a ``(slots, n)`` membership matrix and optional masks."""
    graph = draw(graphs())
    n = graph.num_vertices
    slots = draw(st.integers(0, 5))
    rng = Random(draw(st.integers(0, 2**16)))
    rows = []
    for _ in range(slots):
        kind = draw(st.sampled_from(["random", "greedy", "flipped"]))
        if kind == "random":
            rows.append([rng.random() < 0.4 for _ in range(n)])
            continue
        row = greedy_mis(graph, rng)
        if kind == "flipped" and n:
            row[rng.randrange(n)] ^= True
        rows.append(row)
    membership = np.array(rows, dtype=bool).reshape(slots, n)

    def mask():
        if not draw(st.booleans()):
            return None
        density = draw(st.sampled_from([0.05, 0.2]))
        return np.array(
            [[rng.random() < density for _ in range(n)] for _ in range(slots)],
            dtype=bool,
        ).reshape(slots, n)

    crashed, absent = mask(), mask()
    recovered = None
    if draw(st.booleans()):
        recovered = np.array(
            [rng.random() < 0.7 for _ in range(slots)], dtype=bool
        )
    return graph, membership, crashed, absent, recovered


class TestOracle:
    @settings(max_examples=300, deadline=None)
    @given(batches())
    def test_verdicts_equal_verify_mis(self, batch):
        assert_agrees(*batch)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_graphs(self, n):
        graph = empty_graph(n)
        assert_agrees(graph, np.ones((2, n), dtype=bool))
        assert_agrees(graph, np.zeros((2, n), dtype=bool))
        assert_agrees(graph, np.zeros((0, n), dtype=bool))

    def test_unrecovered_slots_are_skipped(self):
        graph = grid_graph(2, 2)
        membership = np.zeros((2, 4), dtype=bool)
        recovered = np.array([False, True])
        membership[1, [0, 3]] = True
        verify_mis_rows(graph, membership, recovered=recovered)
        assert invalid_mis_rows(graph, membership).tolist() == [True, False]

    def test_unrecovered_slots_skip_only_maximality(self):
        # Slot 0 holds the edge (0, 1), slot 1 the crashed vertex 3 and
        # slot 2 the absent vertex 0; none recovered, all three fail.
        graph = grid_graph(2, 2)
        membership = np.zeros((3, 4), dtype=bool)
        membership[0, [0, 1]] = True
        membership[1, 3] = True
        membership[2, 0] = True
        crashed = np.zeros((3, 4), dtype=bool)
        crashed[1, 3] = True
        absent = np.zeros((3, 4), dtype=bool)
        absent[2, 0] = True
        recovered = np.zeros(3, dtype=bool)
        assert invalid_mis_rows(
            graph, membership, crashed, absent, recovered
        ).tolist() == [True, True, True]
        with pytest.raises(MISValidationError, match=r"edge \(0, 1\)") as caught:
            verify_mis_rows(graph, membership, crashed, absent, recovered)
        assert caught.value.slot == 0
        assert_agrees(graph, membership, crashed, absent, recovered)

    def test_shape_mismatch_is_rejected(self):
        graph = grid_graph(2, 2)
        with pytest.raises(ValueError, match="membership must have shape"):
            verify_mis_rows(graph, np.zeros((2, 5), dtype=bool))
        with pytest.raises(ValueError, match="crashed must have shape"):
            verify_mis_rows(
                graph,
                np.zeros((2, 4), dtype=bool),
                crashed=np.zeros((1, 4), dtype=bool),
            )


# ------------------------------------------------------ real armada runs

CHURN_FAULTS = FaultModel(
    crash_schedule=CrashSchedule.from_pairs([(1, 4), (3, 9)]),
    churn_schedule=ChurnSchedule.from_events(
        [("leave", 2, 0), ("sleep", 3, 1), ("wake", 5, 1)]
    ),
)


def armada_runs(faults=FaultModel()):
    graphs = [
        gnp_random_graph(20, 0.3, Random(42)),
        gnp_random_graph(20, 0.1, Random(43)),
    ]
    runs = ArmadaSimulator(graphs).run_armada(
        FeedbackRule(), [[1, 2, 3, 4], [5, 6, 7]], faults=faults
    )
    return list(zip(graphs, runs))


class TestArmadaRuns:
    @pytest.mark.parametrize(
        "faults", [FaultModel(), CHURN_FAULTS], ids=["fault-free", "churn"]
    )
    def test_real_runs_agree(self, faults):
        for graph, run in armada_runs(faults):
            assert_agrees(
                graph, run.membership, run.crashed, run.absent, run.recovered
            )
            assert not invalid_mis_rows(
                graph, run.membership, run.crashed, run.absent, run.recovered
            ).any()

    def test_grid_runs_agree(self):
        graph = grid_graph(9, 11)
        (run,) = ArmadaSimulator([graph]).run_armada(
            FeedbackRule(), [list(range(16))]
        )
        assert_agrees(graph, run.membership)

    def test_message_runs_agree(self):
        graph = gnp_random_graph(25, 0.2, Random(5))
        (run,) = MessageArmadaSimulator([graph]).run_armada(
            LubyPermutationRule(), [list(range(6))]
        )
        assert_agrees(graph, run.membership)

    @pytest.mark.parametrize(
        "faults", [FaultModel(), CHURN_FAULTS], ids=["fault-free", "churn"]
    )
    @pytest.mark.parametrize("mutation", ["drop", "add"])
    def test_mutation_names_its_slot(self, faults, mutation):
        rng = Random(2024)
        for graph, run in armada_runs(faults):
            for slot in range(run.trials):
                if not run.trial_recovered(slot):
                    continue
                membership = run.membership.copy()
                candidates = np.flatnonzero(
                    membership[slot] if mutation == "drop"
                    else ~membership[slot]
                )
                vertex = rng.choice(candidates.tolist())
                membership[slot, vertex] ^= True
                with pytest.raises(MISValidationError) as caught:
                    verify_mis_rows(
                        graph, membership, run.crashed, run.absent,
                        run.recovered,
                    )
                assert caught.value.slot == slot
                assert str(caught.value) == oracle_error(
                    graph, membership, run.crashed, run.absent, slot
                )

    def test_disagreement_is_an_assertion(self, monkeypatch):
        graph, run = armada_runs()[0]
        membership = run.membership.copy()
        membership[2] = False
        monkeypatch.setattr(validation, "verify_mis", lambda *a, **k: set())
        with pytest.raises(AssertionError, match="slot 2") as caught:
            verify_mis_rows(graph, membership)
        assert not isinstance(caught.value, MISValidationError)


# ------------------------------------------------------------ telemetry


class TestTelemetry:
    def test_counts_checked_slots_and_fallbacks(self):
        graph, run = armada_runs(CHURN_FAULTS)[0]
        checked = int(np.count_nonzero(run.recovered))
        with probes.capture() as collector:
            verify_mis_rows(
                graph, run.membership, run.crashed, run.absent, run.recovered
            )
        assert collector.counters["verify.slots"] == checked
        assert "verify.fallbacks" not in collector.counters
        membership = run.membership.copy()
        membership[:, :] = False
        with probes.capture() as collector:
            with pytest.raises(MISValidationError):
                verify_mis_rows(graph, membership)
        assert collector.counters["verify.fallbacks"] == 1


# ---------------------------------------------------------- independence


def test_validation_imports_nothing_from_the_engine():
    tree = ast.parse(Path(validation.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported
    assert not [name for name in imported if name.startswith("repro.engine")]
