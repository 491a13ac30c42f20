"""Fault-injected fleet vs. the per-node reference engine.

Before ISSUE 3 every fault-injected trial had to run on the per-node
reference engine; now the fleet engine injects the same fault model as
vectorised masks on its ``(trials, n)`` tensors.  This bench runs one
identical robustness grid — same graph family, same fault levels, same
trial counts — through both runners and asserts the ISSUE's acceptance
floor: the fleet side at least 3x faster (the measured margin is far
larger; the floor is deliberately conservative for CI boxes).

The two sides sample beep loss differently (per-edge draws vs. the
collapsed ``1 - loss**k`` per-node draw), so they agree in law, not bit
for bit — both are validated trial by trial.

Run with ``pytest benchmarks/bench_fault_fleet.py``.
"""

from __future__ import annotations

import time

from benchmarks.conftest import report
from repro.algorithms.feedback import FeedbackMIS
from repro.beeping.faults import FaultModel
from repro.beeping.rng import derive_seed
from repro.engine.rules import FeedbackRule
from repro.experiments.runner import run_fleet_trials, run_trials
from repro.experiments.tables import format_table
from repro.graphs.random_graphs import gnp_random_graph

N = 120
EDGE_PROBABILITY = 0.5
TRIALS = 24
LOSS_LEVELS = (0.0, 0.1)
SPURIOUS_LEVELS = (0.0, 0.1)
MASTER_SEED = 1604
SPEEDUP_FLOOR = 3.0


def _grid():
    index = 0
    for loss in LOSS_LEVELS:
        for spurious in SPURIOUS_LEVELS:
            yield index, FaultModel(
                beep_loss_probability=loss,
                spurious_beep_probability=spurious,
            )
            index += 1


def _graph_factory(rng):
    return gnp_random_graph(N, EDGE_PROBABILITY, rng)


def _fleet_grid():
    return [
        run_fleet_trials(
            FeedbackRule,
            _graph_factory,
            TRIALS,
            derive_seed(MASTER_SEED, index),
            faults=faults,
        )
        for index, faults in _grid()
    ]


def _run_reference_grid():
    return [
        run_trials(
            FeedbackMIS,
            _graph_factory,
            TRIALS,
            derive_seed(MASTER_SEED, index),
            faults=faults,
        )
        for index, faults in _grid()
    ]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_fault_fleet_speedup_floor():
    fleet_rows, fleet_seconds = _timed(_fleet_grid)
    reference_rows, reference_seconds = _timed(_run_reference_grid)

    speedup = reference_seconds / max(fleet_seconds, 1e-9)
    rows = [
        ["reference (per-node)", f"{reference_seconds * 1000:.1f}"],
        ["fleet (vectorised faults)", f"{fleet_seconds * 1000:.1f}"],
        ["speedup", f"{speedup:.1f}x"],
    ]
    report(
        "FAULT SWEEP: fleet vs reference engine "
        f"(n={N}, trials={TRIALS}, grid={len(LOSS_LEVELS)}x"
        f"{len(SPURIOUS_LEVELS)})",
        format_table(["engine", "ms"], rows),
    )

    # Same grid shape out of both runners, every trial validated inside.
    assert len(fleet_rows) == len(reference_rows)
    for fleet_cell, reference_cell in zip(fleet_rows, reference_rows):
        assert len(fleet_cell) == len(reference_cell) == TRIALS

    assert speedup >= SPEEDUP_FLOOR, (
        f"fleet fault sweep only {speedup:.1f}x faster than the reference "
        f"engine (floor {SPEEDUP_FLOOR}x)"
    )
