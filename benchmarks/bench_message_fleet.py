"""Fleet-Luby vs the per-node loop on the n=200 workload cell.

Before ISSUE 5 the message-passing baselines (Luby, Métivier,
local-minimum-id) only ran through the per-node dict/set implementations
in :mod:`repro.algorithms` — the slow path every paper comparison had to
pay.  This bench runs one identical comparison cell — same graph family,
same size, same trial count — through both runners:

- **fleet**: :func:`repro.experiments.runner.run_fleet_trials` with the
  :class:`~repro.engine.messages.LubyPermutationRule` kernel — the whole
  cell as one counter-mode lockstep batch;
- **loop**: :func:`repro.experiments.runner.run_trials` with the per-node
  :class:`~repro.algorithms.luby.LubyMIS` reference.

The two consume randomness differently and agree in law only (the
conformance suite pins that); here both validate every trial and the
fleet side must clear the ISSUE's conservative >=3x CI floor (the
measured margin is far larger).  Results land in
``BENCH_message_fleet.json`` via the shared conftest helper.

Run with ``pytest benchmarks/bench_message_fleet.py``.
"""

from __future__ import annotations

import time

from benchmarks.conftest import report, write_bench_result
from repro.algorithms.luby import LubyMIS
from repro.engine.messages import LubyPermutationRule
from repro.experiments.runner import run_fleet_trials, run_trials
from repro.experiments.tables import format_table
from repro.graphs.random_graphs import gnp_random_graph

N = 200
EDGE_PROBABILITY = 0.5
TRIALS = 60
GRAPHS = 3
MASTER_SEED = 1605
SPEEDUP_FLOOR = 3.0


def _graph_factory(rng):
    return gnp_random_graph(N, EDGE_PROBABILITY, rng)


def _fleet_batch():
    return run_fleet_trials(
        LubyPermutationRule,
        _graph_factory,
        TRIALS,
        MASTER_SEED,
        graphs=GRAPHS,
        validate=True,
    )


def _run_loop():
    return run_trials(
        lambda: LubyMIS("permutation"),
        _graph_factory,
        TRIALS,
        MASTER_SEED,
        validate=True,
    )


def _measure(repeats: int = 3):
    fleet_rows = loop_rows = None
    fleet_seconds = loop_seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fleet_rows = _fleet_batch()
        fleet_seconds = min(fleet_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        loop_rows = _run_loop()
        loop_seconds = min(loop_seconds, time.perf_counter() - start)
    return {
        "fleet_seconds": fleet_seconds,
        "loop_seconds": loop_seconds,
        "speedup": loop_seconds / max(fleet_seconds, 1e-9),
        "fleet_rows": fleet_rows,
        "loop_rows": loop_rows,
    }


def test_message_fleet_speedup_floor():
    measurement = _measure()
    if measurement["speedup"] < SPEEDUP_FLOOR:
        # One retry absorbs a noisy-neighbour first attempt on CI boxes.
        retry = _measure(repeats=5)
        if retry["speedup"] > measurement["speedup"]:
            measurement = retry
    speedup = measurement["speedup"]
    rows = [
        ["per-node loop (LubyMIS)",
         f"{measurement['loop_seconds'] * 1000:.1f}"],
        ["message fleet (LubyPermutationRule)",
         f"{measurement['fleet_seconds'] * 1000:.1f}"],
        ["speedup", f"{speedup:.1f}x"],
    ]
    report(
        "MESSAGE FLEET: lockstep Luby vs per-node loop "
        f"(n={N}, trials={TRIALS}, graphs={GRAPHS})",
        format_table(["runner", "ms"], rows),
    )
    write_bench_result(
        "message_fleet",
        params={
            "n": N,
            "edge_probability": EDGE_PROBABILITY,
            "trials": TRIALS,
            "graphs": GRAPHS,
            "master_seed": MASTER_SEED,
            "algorithm": "luby-permutation",
        },
        results={
            "fleet_seconds": measurement["fleet_seconds"],
            "loop_seconds": measurement["loop_seconds"],
            "speedup": speedup,
        },
        floor=SPEEDUP_FLOOR,
    )

    # Same cell shape out of both runners, every trial validated inside;
    # the runs agree in law, so mean rounds must be in the same ballpark.
    fleet_rows, loop_rows = measurement["fleet_rows"], measurement["loop_rows"]
    assert len(fleet_rows) == len(loop_rows) == TRIALS
    fleet_mean = sum(row.rounds for row in fleet_rows) / TRIALS
    loop_mean = sum(row.rounds for row in loop_rows) / TRIALS
    assert abs(fleet_mean - loop_mean) <= 0.5 * max(fleet_mean, loop_mean)

    assert speedup >= SPEEDUP_FLOOR, (
        f"message fleet only {speedup:.1f}x faster than the per-node loop "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
