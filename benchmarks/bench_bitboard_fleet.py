"""Bitboard fleet backend vs. the float32 GEMM dense backend at n = 1000.

The dense backend pays one ``(trials, n) x (n, n)`` float32 GEMM per
dense-phase round — at n = 1000 a 4 MB adjacency operand.  The bitboard
backend (:mod:`repro.engine.bitboard`) packs flags and adjacency rows
into ``uint64`` lanes (128 KB for the whole adjacency) and computes the
same reductions with AND + popcount.  Both backends run the one lockstep
loop of :class:`~repro.engine.fleet.ArmadaSimulator` (the fleet is the
one-graph armada), frontier tail included, so this bench isolates the
reduction kernels on the headline workload — one fleet batch of
``G(1000, 1/2)`` with 100 trials in counter rng mode:

- ``test_bitboard_fleet_floor`` (default run, CI): the bitboard backend
  must win or tie the dense backend — a **0.8x** floor, which leaves
  room for timing noise around a tie.  Measured margin on the
  recording machine: ~1.1-1.2x (``BENCH_bitboard_fleet.json``,
  ``docs/perf.md``).

Simulator construction (adjacency packing vs. the float32 densification)
is inside the timed region on both sides: the sweep pays it per cell, so
the bench does too.  Both sides run the identical workload — the
conformance suite pins them bit for bit, and the sanity test below
re-checks it on this exact cell.

Run with ``pytest benchmarks/bench_bitboard_fleet.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import report, write_bench_result
from repro.beeping.rng import RngStream, derive_seed_block
from repro.engine.fleet import FleetSimulator
from repro.engine.rules import FeedbackRule
from repro.experiments.tables import format_table
from repro.graphs.random_graphs import gnp_random_graph

N = 1000
TRIALS = 100
EDGE_PROBABILITY = 0.5
MASTER_SEED = 2207
CELL_FLOOR = 0.8


def _cell_graph():
    return gnp_random_graph(N, EDGE_PROBABILITY, RngStream(MASTER_SEED).child(0))


def _seeds():
    return derive_seed_block(MASTER_SEED, 0, 1, count=TRIALS)


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure(repeats: int) -> dict:
    graph = _cell_graph()
    seeds = _seeds()

    def dense_cell():
        FleetSimulator(graph, backend="dense").run_fleet(
            FeedbackRule(), seeds, rng_mode="counter"
        )

    def bitboard_cell():
        FleetSimulator(graph, backend="bitboard").run_fleet(
            FeedbackRule(), seeds, rng_mode="counter"
        )

    dense_cell()
    bitboard_cell()  # warm BLAS and lane caches
    dense_seconds = _best_of(dense_cell, repeats)
    bitboard_seconds = _best_of(bitboard_cell, repeats)
    return {
        "n": N,
        "trials": TRIALS,
        "dense_seconds": dense_seconds,
        "bitboard_seconds": bitboard_seconds,
        "speedup": dense_seconds / max(bitboard_seconds, 1e-9),
    }


def _report_and_record(measurement: dict) -> None:
    report(
        "BITBOARD vs float32-GEMM dense fleet backend "
        f"(n={N}, trials={TRIALS}, counter rng)",
        format_table(
            ["path", "ms"],
            [
                [
                    "dense: float32 GEMM per round",
                    f"{measurement['dense_seconds'] * 1000:.1f}",
                ],
                [
                    "bitboard: uint64 AND+popcount",
                    f"{measurement['bitboard_seconds'] * 1000:.1f}",
                ],
                ["speedup", f"{measurement['speedup']:.1f}x"],
            ],
        ),
    )
    write_bench_result(
        "bitboard_fleet",
        params={
            "n": N,
            "trials": TRIALS,
            "edge_probability": EDGE_PROBABILITY,
            "master_seed": MASTER_SEED,
        },
        results={
            key: measurement[key]
            for key in ("dense_seconds", "bitboard_seconds", "speedup")
        },
        floor=CELL_FLOOR,
    )


def test_bitboard_fleet_floor():
    """The n=1000 headline cell must clear the 0.8x CI floor."""
    measurement = _measure(repeats=3)
    if measurement["speedup"] < CELL_FLOOR:
        # One re-measure absorbs scheduler noise on shared CI boxes; a
        # real regression fails both samples.
        retry = _measure(repeats=3)
        if retry["speedup"] > measurement["speedup"]:
            measurement = retry
    _report_and_record(measurement)
    assert measurement["speedup"] >= CELL_FLOOR, (
        f"bitboard backend at {measurement['speedup']:.2f}x the dense "
        f"fleet backend's speed on the n={N} cell (floor {CELL_FLOOR}x)"
    )


def test_bitboard_cell_is_reproducible_and_complete():
    """The timed workload is sane: bit-identical to the dense backend."""
    graph = _cell_graph()
    seeds = _seeds()[:10]
    dense = FleetSimulator(graph, backend="dense").run_fleet(
        FeedbackRule(), seeds, validate=True, rng_mode="counter"
    )
    bitboard = FleetSimulator(graph, backend="bitboard").run_fleet(
        FeedbackRule(), seeds, validate=True, rng_mode="counter"
    )
    assert np.array_equal(dense.rounds, bitboard.rounds)
    assert np.array_equal(dense.membership, bitboard.membership)
    assert np.array_equal(dense.beeps_by_node, bitboard.beeps_by_node)
