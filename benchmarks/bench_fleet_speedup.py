"""Fleet batch vs. seed-by-seed wall-clock on the figure workloads.

The fleet engine exists to delete the per-trial Python round loop from the
batch hot path; this file records the actual margin.  The baseline runs
the same trials seed by seed — one one-seed ``FleetSimulator`` run per
trial on a shared simulator — so both sides run the identical workload
(same graph, same seeds, bit-identical results) and the measured ratio is
pure execution-strategy overhead.

``test_fleet_speedup_floor`` asserts the acceptance floor (fleet >= 2x
the seed-by-seed loop at n = 1000, trials = 64).  It is marked ``slow``
so the default tier-1 run skips it; run it with

    pytest -m slow benchmarks/bench_fleet_speedup.py
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import report, write_bench_result
from repro.beeping.rng import derive_seed_block, spawn_rng
from repro.engine.batch import run_batch
from repro.engine.fleet import FleetSimulator
from repro.engine.rules import FeedbackRule
from repro.experiments.tables import format_table
from repro.graphs.random_graphs import gnp_random_graph

TRIALS = 64
SIZES = (100, 1000)
MASTER_SEED = 4242


def _workload(n: int):
    return gnp_random_graph(n, 0.5, spawn_rng(MASTER_SEED, n))


def _run_seed_by_seed(graph, trials: int):
    """The baseline: the batch's trials as one one-seed run each."""
    simulator = FleetSimulator(graph)
    seeds = derive_seed_block(MASTER_SEED, 0, count=trials)
    return [
        simulator.run_fleet(FeedbackRule(), [int(seed)]).trial_run(0)
        for seed in seeds
    ]


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _measure_speedup(n: int, trials: int = TRIALS, repeats: int = 3) -> dict:
    """Best-of-``repeats`` wall-clock for both strategies on one workload."""
    graph = _workload(n)
    loop_seconds = min(
        _time_once(lambda: _run_seed_by_seed(graph, trials))
        for _ in range(repeats)
    )
    fleet_seconds = min(
        _time_once(
            lambda: run_batch(graph, FeedbackRule, trials, MASTER_SEED)
        )
        for _ in range(repeats)
    )
    return {
        "n": n,
        "trials": trials,
        "loop_seconds": loop_seconds,
        "fleet_seconds": fleet_seconds,
        "speedup": loop_seconds / fleet_seconds,
    }


@pytest.mark.parametrize("n", SIZES)
def test_fleet_batch_benchmark(benchmark, n):
    """pytest-benchmark timing of one full fleet batch per size."""
    graph = _workload(n)

    def run_fleet_batch():
        return run_batch(graph, FeedbackRule, TRIALS, MASTER_SEED)

    result = benchmark(run_fleet_batch)
    assert result.trials == TRIALS
    assert result.mean_rounds > 0


@pytest.mark.slow
def test_fleet_speedup_floor():
    """Fleet must beat the seed-by-seed loop by >= 2x at n = 1000,
    trials = 64."""
    rows = []
    measurements = [_measure_speedup(n) for n in SIZES]
    for m in measurements:
        rows.append(
            [
                m["n"],
                m["trials"],
                f"{m['loop_seconds'] * 1e3:.1f}",
                f"{m['fleet_seconds'] * 1e3:.1f}",
                f"{m['speedup']:.1f}x",
            ]
        )
    report(
        f"FLEET SPEEDUP: trial-parallel vs seed-by-seed, trials={TRIALS}",
        format_table(
            ["n", "trials", "loop (ms)", "fleet (ms)", "speedup"], rows
        ),
    )
    write_bench_result(
        "fleet_speedup",
        params={
            "sizes": list(SIZES),
            "trials": TRIALS,
            "edge_probability": 0.5,
            "master_seed": MASTER_SEED,
        },
        results={"measurements": measurements},
        floor=2.0,
    )
    at_1000 = measurements[-1]
    assert at_1000["n"] == 1000
    assert at_1000["speedup"] >= 2.0, (
        f"fleet engine only {at_1000['speedup']:.2f}x faster than the "
        f"seed-by-seed loop at n=1000, trials={TRIALS} (floor is 2x)"
    )
