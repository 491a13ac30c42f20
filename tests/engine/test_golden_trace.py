"""Golden-trace regression: an exact, checked-in round-by-round run.

The conformance suite proves the engines agree with *each other*; this
test pins them to an absolute reference.  The beep trace below was
recorded from the fleet engine at the commit that introduced it, on a
fixed 8-vertex G(n, 0.4) graph under master seed ``0x60``.  Any change to
seed derivation, random-stream consumption, round ordering or probability
updates — in any engine, since they are bit-equal — shifts this trace and
fails here, turning silent semantic drift into a loud diff.

If a future change *intends* to alter the trace (e.g. a new seed
contract), regenerate the literals with ``record_beeps=True`` and say so
in the commit message.
"""

from __future__ import annotations

from random import Random

import numpy as np

from repro.beeping.rng import derive_seed_block
from repro.engine.fleet import FleetSimulator
from repro.engine.rules import FeedbackRule
from repro.graphs.random_graphs import gnp_random_graph

MASTER_SEED = 0x60
GRAPH_SEED = 1984

GOLDEN_EDGES = [
    (0, 1), (0, 3), (1, 2), (1, 3), (2, 4), (2, 5),
    (2, 6), (2, 7), (3, 5), (3, 6), (4, 5), (4, 7),
]
GOLDEN_ROUNDS = [1, 3]
GOLDEN_MIS = [[1, 5, 6, 7], [0, 5, 6, 7]]
GOLDEN_BEEPS = [
    [0, 1, 0, 0, 0, 1, 1, 1],
    [1, 0, 1, 0, 1, 1, 2, 1],
]
# One string per round, one 0/1 char per vertex.
GOLDEN_TRACE = {
    0: ["01000111"],
    1: ["10101010", "00000000", "00000111"],
}


def _golden_run():
    graph = gnp_random_graph(8, 0.4, Random(GRAPH_SEED))
    assert sorted(graph.edges()) == GOLDEN_EDGES, (
        "the golden graph itself changed — gnp_random_graph drift?"
    )
    seeds = derive_seed_block(MASTER_SEED, 0, count=2)
    return graph, FleetSimulator(graph).run_fleet(
        FeedbackRule(), seeds, validate=True, record_beeps=True
    )


def test_golden_summary_statistics():
    _graph, run = _golden_run()
    assert run.rounds.tolist() == GOLDEN_ROUNDS
    assert [sorted(run.mis_set(t)) for t in range(2)] == GOLDEN_MIS
    assert run.beeps_by_node.tolist() == GOLDEN_BEEPS


def test_golden_round_by_round_trace():
    _graph, run = _golden_run()
    history = run.beep_history
    for trial, expected_rows in GOLDEN_TRACE.items():
        observed = [
            "".join("1" if beeped else "0" for beeped in history[r, trial])
            for r in range(int(run.rounds[trial]))
        ]
        assert observed == expected_rows, f"trial {trial} trace drifted"


def test_golden_trace_holds_for_bitboard_backend():
    """Replaying the pre-bitboard golden literals on the bitboard backend:
    packing the state into uint64 lanes must not shift a single byte of
    the recorded stream-mode trace."""
    graph = gnp_random_graph(8, 0.4, Random(GRAPH_SEED))
    seeds = derive_seed_block(MASTER_SEED, 0, count=2)
    run = FleetSimulator(graph, backend="bitboard").run_fleet(
        FeedbackRule(), seeds, validate=True, record_beeps=True
    )
    assert run.rounds.tolist() == GOLDEN_ROUNDS
    assert [sorted(run.mis_set(t)) for t in range(2)] == GOLDEN_MIS
    assert run.beeps_by_node.tolist() == GOLDEN_BEEPS
    history = run.beep_history
    for trial, expected_rows in GOLDEN_TRACE.items():
        observed = [
            "".join("1" if beeped else "0" for beeped in history[r, trial])
            for r in range(int(run.rounds[trial]))
        ]
        assert observed == expected_rows, f"trial {trial} trace drifted"


def test_golden_trace_holds_seed_by_seed():
    """Each golden trial replayed alone, as a one-seed fleet run on every
    backend, reproduces its batched row."""
    from repro.beeping.rng import derive_seed

    graph = gnp_random_graph(8, 0.4, Random(GRAPH_SEED))
    for backend in ("dense", "sparse", "bitboard"):
        simulator = FleetSimulator(graph, backend=backend)
        for t in range(2):
            run = simulator.run_fleet(
                FeedbackRule(), [derive_seed(MASTER_SEED, 0, t)],
                validate=True,
            ).trial_run(0)
            assert run.rounds == GOLDEN_ROUNDS[t], backend
            assert sorted(run.mis) == GOLDEN_MIS[t], backend
            assert np.array_equal(run.beeps_by_node, GOLDEN_BEEPS[t]), backend


# ---------------------------------------------------------------------------
# Golden churn trace: the same graph and master seed, now under a fixed
# churn timeline.  The universe grows to 9 vertices (joiner 8 attaches to
# 2 and 6), so every trace row below has 9 columns.  Repair times pin the
# applied-batch discipline of record_quiescence: trial 0's wake at round
# 4 re-opens the competition for 9 more rounds (repair 9), and must never
# be resolved early by the quiet checkpoint that precedes its batch.

CHURN_EVENTS = [
    ("leave", 1, 0),
    ("sleep", 2, 5),
    ("wake", 4, 5),
    ("join", 3, 8, (2, 6)),
]
CHURN_ROUNDS = [13, 5]
CHURN_MIS = [[1, 5, 6, 7], [2, 3]]
CHURN_BEEPS = [
    [0, 1, 0, 0, 0, 2, 1, 1, 0],
    [1, 0, 2, 1, 1, 0, 1, 0, 0],
]
CHURN_ABSENT = [[0], [0]]
CHURN_REPAIR = [(0, 0, 0, 9), (1, 0, 0, 0)]
CHURN_TRACE = {
    0: ["010001110"] + ["000000000"] * 11 + ["000001000"],
    1: ["101010100", "001100000"] + ["000000000"] * 3,
}


def _golden_churn_run(backend="dense"):
    from repro.beeping.faults import ChurnSchedule, FaultModel

    graph = gnp_random_graph(8, 0.4, Random(GRAPH_SEED))
    assert sorted(graph.edges()) == GOLDEN_EDGES
    faults = FaultModel(churn_schedule=ChurnSchedule.from_events(CHURN_EVENTS))
    seeds = derive_seed_block(MASTER_SEED, 0, count=2)
    return FleetSimulator(graph, backend=backend).run_fleet(
        FeedbackRule(), seeds, validate=True, faults=faults,
        rng_mode="stream", record_beeps=True,
    )


def test_golden_churn_trace():
    """The checked-in churn run: exact rounds, MIS, beeps, repair times
    and round-by-round trace on every fleet backend."""
    for backend in ("dense", "sparse", "bitboard"):
        run = _golden_churn_run(backend)
        assert run.rounds.tolist() == CHURN_ROUNDS, backend
        assert [sorted(run.mis_set(t)) for t in range(2)] == CHURN_MIS
        assert run.beeps_by_node.tolist() == CHURN_BEEPS
        history = run.beep_history
        for trial, expected_rows in CHURN_TRACE.items():
            observed = [
                "".join("1" if beeped else "0" for beeped in history[r, trial])
                for r in range(int(run.rounds[trial]))
            ]
            assert observed == expected_rows, (
                f"{backend} trial {trial} churn trace drifted"
            )
        for t in range(2):
            trial = run.trial_run(t)
            assert sorted(trial.absent) == CHURN_ABSENT[t]
            assert trial.repair_rounds == CHURN_REPAIR[t]
            assert trial.recovered


def test_golden_churn_trace_holds_seed_by_seed():
    """Each golden churn trial replayed alone on every backend: a lone
    trial keeps running through the quiet gaps exactly as its row did."""
    from repro.beeping.faults import ChurnSchedule, FaultModel
    from repro.beeping.rng import derive_seed

    graph = gnp_random_graph(8, 0.4, Random(GRAPH_SEED))
    faults = FaultModel(churn_schedule=ChurnSchedule.from_events(CHURN_EVENTS))
    for backend in ("dense", "sparse", "bitboard"):
        simulator = FleetSimulator(graph, backend=backend)
        for t in range(2):
            run = simulator.run_fleet(
                FeedbackRule(), [derive_seed(MASTER_SEED, 0, t)],
                validate=True, faults=faults, rng_mode="stream",
            ).trial_run(0)
            assert run.rounds == CHURN_ROUNDS[t]
            assert sorted(run.mis) == CHURN_MIS[t]
            assert np.array_equal(run.beeps_by_node, CHURN_BEEPS[t])
            assert sorted(run.absent) == CHURN_ABSENT[t]
            assert run.repair_rounds == CHURN_REPAIR[t]
            assert run.recovered
