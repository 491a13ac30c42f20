"""Application kernel vs the per-node MIS-peeling loop on one colouring cell.

Before ISSUE 6 the MIS applications (colouring, matching, dominating and
ruling sets) only ran through the per-node reductions in
:mod:`repro.applications` — one Python MIS run per peeling layer, per
trial.  This bench runs one identical colouring cell through both
runners:

- **fleet**: :class:`repro.engine.applications.ApplicationFleetSimulator`
  with :class:`~repro.engine.applications.ColoringRule` — every trial's
  full peeling stack as one counter-mode lockstep batch;
- **loop**: :func:`repro.applications.coloring.mis_coloring` with the
  per-node :class:`~repro.beeping.feedback.FeedbackMIS` reference, one
  trial at a time.

The two consume randomness differently (the loop side burns `Random`
streams, the fleet side the counter fabric) and agree in law only — the
exact bit-equality story lives in ``tests/engine/test_applications.py``,
where the loop side replays the fleet's draws via ``EngineMIS``.  Here
both validate every trial and the fleet side must clear the ISSUE's
conservative >=3x CI floor.  Results land in
``BENCH_application_fleet.json`` via the shared conftest helper.

Run with ``pytest benchmarks/bench_application_fleet.py``.
"""

from __future__ import annotations

import time
from random import Random

from benchmarks.conftest import report, write_bench_result
from repro.applications.coloring import mis_coloring
from repro.beeping.rng import derive_seed_block, spawn_rng
from repro.engine.applications import ApplicationFleetSimulator, ColoringRule
from repro.experiments.tables import format_table
from repro.graphs.random_graphs import gnp_random_graph

N = 80
EDGE_PROBABILITY = 0.15
TRIALS = 16
MASTER_SEED = 1606
SPEEDUP_FLOOR = 3.0


def _make_graph():
    return gnp_random_graph(N, EDGE_PROBABILITY, Random(MASTER_SEED))


def _fleet_batch(graph):
    seeds = derive_seed_block(MASTER_SEED, 0, count=TRIALS)
    simulator = ApplicationFleetSimulator(graph, ColoringRule())
    return simulator.run_fleet(seeds)


def _run_loop(graph):
    return [
        mis_coloring(graph, spawn_rng(MASTER_SEED, 1, trial))
        for trial in range(TRIALS)
    ]


def _measure(graph, repeats: int = 3):
    fleet_run = loop_results = None
    fleet_seconds = loop_seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fleet_run = _fleet_batch(graph)
        fleet_seconds = min(fleet_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        loop_results = _run_loop(graph)
        loop_seconds = min(loop_seconds, time.perf_counter() - start)
    return {
        "fleet_seconds": fleet_seconds,
        "loop_seconds": loop_seconds,
        "speedup": loop_seconds / max(fleet_seconds, 1e-9),
        "fleet_run": fleet_run,
        "loop_results": loop_results,
    }


def test_application_fleet_speedup_floor():
    graph = _make_graph()
    measurement = _measure(graph)
    if measurement["speedup"] < SPEEDUP_FLOOR:
        # One retry absorbs a noisy-neighbour first attempt on CI boxes.
        retry = _measure(graph, repeats=5)
        if retry["speedup"] > measurement["speedup"]:
            measurement = retry
    speedup = measurement["speedup"]
    rows = [
        ["per-node peeling loop (mis_coloring)",
         f"{measurement['loop_seconds'] * 1000:.1f}"],
        ["application fleet (ColoringRule)",
         f"{measurement['fleet_seconds'] * 1000:.1f}"],
        ["speedup", f"{speedup:.1f}x"],
    ]
    report(
        "APPLICATION FLEET: lockstep colouring vs per-node peeling "
        f"(n={N}, trials={TRIALS})",
        format_table(["runner", "ms"], rows),
    )
    write_bench_result(
        "application_fleet",
        params={
            "n": N,
            "edge_probability": EDGE_PROBABILITY,
            "trials": TRIALS,
            "master_seed": MASTER_SEED,
            "algorithm": "mis-coloring",
        },
        results={
            "fleet_seconds": measurement["fleet_seconds"],
            "loop_seconds": measurement["loop_seconds"],
            "speedup": speedup,
        },
        floor=SPEEDUP_FLOOR,
    )

    # Same cell out of both runners, every trial validated inside; the
    # runs agree in law, so colour counts and rounds must be in the same
    # ballpark.
    fleet_run, loop_results = measurement["fleet_run"], measurement["loop_results"]
    assert fleet_run.trials == len(loop_results) == TRIALS
    fleet_colors = sum(fleet_run.num_colors(t) for t in range(TRIALS)) / TRIALS
    loop_colors = sum(r.num_colors for r in loop_results) / TRIALS
    assert abs(fleet_colors - loop_colors) <= 0.5 * max(fleet_colors, loop_colors)
    fleet_rounds = sum(int(r) for r in fleet_run.rounds) / TRIALS
    loop_rounds = sum(r.total_rounds for r in loop_results) / TRIALS
    assert abs(fleet_rounds - loop_rounds) <= 0.5 * max(fleet_rounds, loop_rounds)

    assert speedup >= SPEEDUP_FLOOR, (
        f"application fleet only {speedup:.1f}x faster than the per-node "
        f"peeling loop (floor {SPEEDUP_FLOOR}x)"
    )
