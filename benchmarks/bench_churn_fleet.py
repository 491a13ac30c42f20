"""Churn-injected fleet batch vs. the same trials seed by seed.

The churn axis (leaves, sleeps, wakes, joins with self-repair) runs
through every engine.  The batched fleet applies one `(trials, n)` mask
batch per event round and shares the deterministic resolution pass
across all live trials; the seed-by-seed baseline — one one-seed
``FleetSimulator`` run per trial — rebuilds the universe graph and the
same masks once per trial.  This bench runs one identical churned
workload — same universe graph, same schedule, same seeds — through
both and asserts a conservative >= 2x floor for the fleet side (the
measured margin is far larger; the floor absorbs noisy CI boxes).

Both sides validate every trial against the surviving subgraph and must
agree bit for bit — a slow-but-wrong kernel cannot pass.

Run with ``pytest benchmarks/bench_churn_fleet.py``.
"""

from __future__ import annotations

import time
from random import Random

import numpy as np

from benchmarks.conftest import report, write_bench_result
from repro.beeping.faults import ChurnSchedule, FaultModel
from repro.beeping.rng import derive_seed_block
from repro.engine.fleet import FleetSimulator
from repro.engine.rules import FeedbackRule
from repro.experiments.tables import format_table
from repro.graphs.random_graphs import gnp_random_graph

N = 150
EDGE_PROBABILITY = 0.3
TRIALS = 64
MASTER_SEED = 2203
GRAPH_SEED = 907
SPEEDUP_FLOOR = 2.0

CHURN_EVENTS = (
    ("leave", 1, 0),
    ("leave", 2, 1),
    ("sleep", 2, 7),
    ("wake", 6, 7),
    ("join", 4, N, (0, 3, 9)),
    ("join", 4, N + 1, (5, 11)),
    ("sleep", 5, 13),
    ("wake", 9, 13),
    ("leave", 8, N + 1),
)


def _workload():
    graph = gnp_random_graph(N, EDGE_PROBABILITY, Random(GRAPH_SEED))
    faults = FaultModel(
        churn_schedule=ChurnSchedule.from_events(CHURN_EVENTS)
    )
    seeds = derive_seed_block(MASTER_SEED, 0, count=TRIALS)
    return graph, faults, seeds


def _run_fleet(graph, faults, seeds):
    return FleetSimulator(graph).run_fleet(
        FeedbackRule(), seeds, validate=True, faults=faults,
        rng_mode="counter",
    )


def _run_per_trial(graph, faults, seeds):
    simulator = FleetSimulator(graph)
    return [
        simulator.run_fleet(
            FeedbackRule(), [int(seed)], validate=True, faults=faults,
            rng_mode="counter",
        ).trial_run(0)
        for seed in seeds
    ]


def _measure(repeats: int = 3):
    graph, faults, seeds = _workload()
    fleet_seconds = min(
        _timed(lambda: _run_fleet(graph, faults, seeds))[1]
        for _ in range(repeats)
    )
    loop_seconds = min(
        _timed(lambda: _run_per_trial(graph, faults, seeds))[1]
        for _ in range(repeats)
    )
    return {
        "fleet_seconds": fleet_seconds,
        "loop_seconds": loop_seconds,
        "speedup": loop_seconds / max(fleet_seconds, 1e-9),
    }


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _report_and_record(measurement) -> None:
    report(
        "CHURN SWEEP: fleet vs seed-by-seed "
        f"(n={N}, trials={TRIALS}, events={len(CHURN_EVENTS)})",
        format_table(
            ["runner", "ms"],
            [
                ["seed-by-seed", f"{measurement['loop_seconds'] * 1000:.1f}"],
                ["fleet (batched churn)",
                 f"{measurement['fleet_seconds'] * 1000:.1f}"],
                ["speedup", f"{measurement['speedup']:.1f}x"],
            ],
        ),
    )
    write_bench_result(
        "churn_fleet",
        params={
            "n": N,
            "trials": TRIALS,
            "edge_probability": EDGE_PROBABILITY,
            "master_seed": MASTER_SEED,
            "graph_seed": GRAPH_SEED,
            "churn_events": [list(event) for event in CHURN_EVENTS],
        },
        results={
            key: measurement[key]
            for key in ("loop_seconds", "fleet_seconds", "speedup")
        },
        floor=SPEEDUP_FLOOR,
    )


def test_churn_fleet_speedup_floor():
    measurement = _measure(repeats=3)
    if measurement["speedup"] < SPEEDUP_FLOOR:
        # One re-measure absorbs scheduler noise on shared CI boxes; a
        # real regression fails both samples.
        retry = _measure(repeats=3)
        if retry["speedup"] > measurement["speedup"]:
            measurement = retry
    _report_and_record(measurement)
    assert measurement["speedup"] >= SPEEDUP_FLOOR, (
        f"churned fleet only {measurement['speedup']:.2f}x faster than the "
        f"seed-by-seed loop (floor {SPEEDUP_FLOOR}x)"
    )


def test_churn_workload_is_reproducible_and_valid():
    """The timed workload is sane: the batch agrees bit for bit with the
    seed-by-seed runs, every trial recovered, repair times recorded."""
    graph, faults, seeds = _workload()
    fleet = _run_fleet(graph, faults, seeds[:8])
    runs = _run_per_trial(graph, faults, seeds[:8])
    for t, run in enumerate(runs):
        trial = fleet.trial_run(t)
        assert trial.rounds == run.rounds
        assert trial.mis == run.mis
        assert trial.absent == run.absent
        assert trial.repair_rounds == run.repair_rounds
        assert trial.recovered and run.recovered
        assert np.array_equal(trial.beeps_by_node, run.beeps_by_node)
