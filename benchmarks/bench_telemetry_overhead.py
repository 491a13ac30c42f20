"""Telemetry overhead: probes enabled must cost < 5% on the fleet cell.

The telemetry fabric promises to be *zero-cost* when disabled (one
module-global ``is None`` check per probe) and *cheap* when enabled —
the engines only tally a handful of scalars per round, and events fire
once per run, not per round.  This bench pins the enabled side on the
repo's standard acceptance workload, the n = 200 fleet cell (trials =
100 over 5 graphs of ``G(n, 1/2)``, the same cell
``bench_counter_rng.py`` measures): with a collector installed *and* a
live JSONL run ledger attached as a sink, the cell must run within 5% of
the probes-off time.

Timing method: the two sides alternate, ``PAIRS`` disabled/enabled
pairs with the order swapped every pair, and the medians are compared.
A ≈10 ms cell puts the 5% cap at ≈0.5 ms, the size of a shared VM's
drift over a second; alternating spreads that drift over both sides
instead of letting it land on one.

Telemetry never changes results (``tests/telemetry/test_transparency.py``
pins bit-identity), so both sides run byte-identical workloads; only the
instrumentation differs.  The recorded ``speedup`` is
``disabled/enabled`` — ~1.0 by design — with the 0.95 floor expressing
the 5% overhead cap in the same drift vocabulary as every other bench,
so ``repro stats --bench-dir`` tracks it alongside the real speedups.

The enabled samples' ledger is written under ``$REPRO_BENCH_DIR/telemetry``
(default ``./telemetry``); CI uploads it as an artefact next to the
``BENCH_*.json`` records, so every CI run leaves an inspectable
``repro stats`` input behind.

Run with ``pytest benchmarks/bench_telemetry_overhead.py``.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

from benchmarks.conftest import report, write_bench_result
from repro.beeping.rng import RngStream, derive_seed_block
from repro.engine.fleet import ArmadaSimulator
from repro.engine.rules import FeedbackRule
from repro.experiments.tables import format_table
from repro.graphs.random_graphs import gnp_random_graph
from repro.telemetry import probes
from repro.telemetry.ledger import RunLedger, record_run, summarize_run
from repro.telemetry.stats import ledger_paths

N = 200
TRIALS = 100
GRAPHS = 5
EDGE_PROBABILITY = 0.5
MASTER_SEED = 1604
#: speedup = disabled/enabled; 0.95 is the 5% overhead cap.
OVERHEAD_FLOOR = 0.95
#: Alternating disabled/enabled samples per measurement.
PAIRS = 21


def _ledger_root() -> Path:
    return Path(os.environ.get("REPRO_BENCH_DIR", ".")) / "telemetry"


def _cell():
    stream = RngStream(MASTER_SEED)
    graphs = [
        gnp_random_graph(N, EDGE_PROBABILITY, stream.child(g, 0))
        for g in range(GRAPHS)
    ]
    seed_rows = [
        derive_seed_block(MASTER_SEED, g, 1, count=TRIALS // GRAPHS)
        for g in range(GRAPHS)
    ]
    return graphs, seed_rows


def _measure(pairs: int = PAIRS) -> dict:
    graphs, seed_rows = _cell()
    armada = ArmadaSimulator(graphs)

    def seconds() -> float:
        start = time.perf_counter()
        armada.run_armada(FeedbackRule(), seed_rows)
        return time.perf_counter() - start

    seconds()  # warm BLAS and lane caches
    # Every enabled sample streams into one ledger; the collector is
    # installed only around those samples, as record_run would.
    collector = probes.Collector()
    ledger = RunLedger(_ledger_root(), "bench-telemetry-overhead")
    collector.add_sink(ledger.write)
    samples = {False: [], True: []}
    try:
        for pair in range(pairs):
            for probes_on in (pair % 2 == 1, pair % 2 == 0):
                if probes_on:
                    with probes.capture(collector):
                        samples[True].append(seconds())
                else:
                    assert not probes.enabled()
                    samples[False].append(seconds())
    except BaseException:
        ledger.close(status="error", phases=collector.span_totals())
        raise
    ledger.close(status="ok", phases=collector.span_totals())
    disabled_seconds = statistics.median(samples[False])
    enabled_seconds = statistics.median(samples[True])
    return {
        "n": N,
        "trials": TRIALS,
        "graphs": GRAPHS,
        "disabled_seconds": disabled_seconds,
        "enabled_seconds": enabled_seconds,
        "overhead": enabled_seconds / max(disabled_seconds, 1e-9) - 1.0,
        "speedup": disabled_seconds / max(enabled_seconds, 1e-9),
    }


def test_probes_enabled_overhead_under_5_percent():
    measurement = _measure()
    if measurement["speedup"] < OVERHEAD_FLOOR:
        # One re-measure absorbs scheduler noise on shared CI boxes; a
        # real regression fails both samples.
        retry = _measure()
        if retry["speedup"] > measurement["speedup"]:
            measurement = retry
    report(
        "TELEMETRY OVERHEAD on the n=200 fleet cell "
        f"(trials={TRIALS}, graphs={GRAPHS})",
        format_table(
            ["path", "ms"],
            [
                [
                    "probes disabled (median)",
                    f"{measurement['disabled_seconds'] * 1000:.1f}",
                ],
                [
                    "probes enabled + ledger (median)",
                    f"{measurement['enabled_seconds'] * 1000:.1f}",
                ],
                ["overhead", f"{measurement['overhead'] * 100:+.1f}%"],
            ],
        ),
    )
    write_bench_result(
        "telemetry_overhead",
        params={
            "n": N,
            "trials": TRIALS,
            "graphs": GRAPHS,
            "edge_probability": EDGE_PROBABILITY,
            "master_seed": MASTER_SEED,
        },
        results={
            key: measurement[key]
            for key in (
                "disabled_seconds", "enabled_seconds", "overhead", "speedup"
            )
        },
        floor=OVERHEAD_FLOOR,
    )
    assert measurement["speedup"] >= OVERHEAD_FLOOR, (
        f"probes-enabled fleet cell ran {measurement['overhead'] * 100:.1f}% "
        f"slower than probes-off (cap 5%)"
    )


def test_bench_run_leaves_a_readable_ledger():
    """The artefact CI uploads round-trips through the stats reader."""
    with record_run(_ledger_root(), "bench-telemetry-ledger"):
        graphs, seed_rows = _cell()
        ArmadaSimulator(graphs).run_armada(FeedbackRule(), seed_rows)
    paths = ledger_paths(_ledger_root())
    assert paths, "bench produced no ledger files"
    summary = summarize_run(paths[-1])
    assert summary.command == "bench-telemetry-ledger"
    assert summary.status == "ok"
    assert summary.counters["engine.armada.runs"] == 1.0
    assert summary.counters["engine.armada.trials"] == float(TRIALS)
