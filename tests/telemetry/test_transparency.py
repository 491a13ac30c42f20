"""Telemetry is out of band: probes on or off, results are bit-identical.

The hard contract of the telemetry fabric: probes never draw randomness,
never touch engine state and never change control flow, so every engine
produces byte-for-byte the same runs whether a collector is installed or
not.  Each test runs the same workload plain and under
:func:`~repro.telemetry.probes.capture` and compares exact outputs —
including against the checked-in golden trace, which predates telemetry.
"""

from __future__ import annotations

from random import Random

import numpy as np

from repro.beeping.rng import derive_seed, derive_seed_block
from repro.engine.applications import ApplicationFleetSimulator, ColoringRule
from repro.engine.fleet import ArmadaSimulator, FleetSimulator
from repro.engine.messages import LubyPermutationRule, MessageFleetSimulator
from repro.engine.rules import FeedbackRule
from repro.graphs.random_graphs import gnp_random_graph
from repro.telemetry.probes import capture
from tests.engine.test_golden_trace import (
    GOLDEN_BEEPS,
    GOLDEN_MIS,
    GOLDEN_ROUNDS,
    _golden_run,
)

MASTER_SEED = 0x7E1E


def _graph(n: int = 24, seed: int = 91) -> object:
    return gnp_random_graph(n, 0.3, Random(seed))


def _paired(run_once):
    """Run a workload plain, then probed; return both plus the collector.

    The probed run must actually have *hit* probes (non-empty counters),
    otherwise this suite would pass vacuously if the wiring fell out.
    """
    plain = run_once()
    with capture() as collector:
        probed = run_once()
    assert collector.counters, "no probes fired — telemetry unplugged?"
    return plain, probed


def _assert_engine_runs_equal(plain, probed):
    assert plain.rounds == probed.rounds
    assert plain.mis == probed.mis
    assert np.array_equal(plain.beeps_by_node, probed.beeps_by_node)
    assert plain.crashed == probed.crashed


def _assert_fleet_runs_equal(plain, probed):
    assert np.array_equal(plain.rounds, probed.rounds)
    assert np.array_equal(plain.membership, probed.membership)
    assert np.array_equal(plain.beeps_by_node, probed.beeps_by_node)


class TestEnginesBitIdentical:
    def test_dense(self):
        graph = _graph()
        run_once = lambda: FleetSimulator(graph, backend="dense").run_fleet(
            FeedbackRule(), [derive_seed(MASTER_SEED, 0)], validate=True
        ).trial_run(0)
        _assert_engine_runs_equal(*_paired(run_once))

    def test_sparse(self):
        graph = _graph()
        run_once = lambda: FleetSimulator(graph, backend="sparse").run_fleet(
            FeedbackRule(), [derive_seed(MASTER_SEED, 1)], validate=True
        ).trial_run(0)
        _assert_engine_runs_equal(*_paired(run_once))

    def test_fleet(self):
        graph = _graph()
        seeds = derive_seed_block(MASTER_SEED, 2, count=6)
        run_once = lambda: FleetSimulator(graph).run_fleet(
            FeedbackRule(), seeds, validate=True
        )
        _assert_fleet_runs_equal(*_paired(run_once))

    def test_armada(self):
        graphs = [_graph(seed=93 + g) for g in range(3)]
        seed_rows = [
            derive_seed_block(MASTER_SEED, 3, g, count=4) for g in range(3)
        ]
        run_once = lambda: ArmadaSimulator(graphs).run_armada(
            FeedbackRule(), seed_rows, validate=True
        )
        plain_runs, probed_runs = _paired(run_once)
        for plain, probed in zip(plain_runs, probed_runs):
            _assert_fleet_runs_equal(plain, probed)

    def test_messages(self):
        graph = _graph()
        seeds = derive_seed_block(MASTER_SEED, 4, count=5)
        run_once = lambda: MessageFleetSimulator(graph).run_fleet(
            LubyPermutationRule(), seeds, validate=True
        )
        plain, probed = _paired(run_once)
        assert np.array_equal(plain.rounds, probed.rounds)
        assert np.array_equal(plain.membership, probed.membership)
        assert np.array_equal(plain.messages, probed.messages)
        assert np.array_equal(plain.bits, probed.bits)

    def test_applications(self):
        graph = _graph(n=16)
        seeds = derive_seed_block(MASTER_SEED, 5, count=4)
        run_once = lambda: ApplicationFleetSimulator(
            graph, ColoringRule()
        ).run_fleet(seeds, validate=True)
        plain, probed = _paired(run_once)
        assert np.array_equal(plain.rounds, probed.rounds)
        assert np.array_equal(plain.layers, probed.layers)
        assert np.array_equal(plain.membership, probed.membership)


class TestGoldenTraceWithProbesEnabled:
    """The pre-telemetry golden trace holds with a collector installed."""

    def test_probed_run_matches_the_committed_trace(self):
        with capture() as collector:
            _graph_obj, run = _golden_run()
        assert run.rounds.tolist() == GOLDEN_ROUNDS
        assert [sorted(run.mis_set(t)) for t in range(2)] == GOLDEN_MIS
        assert run.beeps_by_node.tolist() == GOLDEN_BEEPS
        assert collector.counters["engine.armada.runs"] == 1.0


class TestSweepBitIdentical:
    """run_sweep rows and cache bytes are identical probes on or off."""

    def _spec(self):
        from repro.sweep.spec import CellSpec, SweepSpec

        cells = (
            CellSpec(
                algorithm="feedback",
                engine="fleet",
                trials=6,
                graphs=1,
                master_seed=MASTER_SEED,
                family="gnp",
                n=20,
                edge_probability=0.4,
            ),
        )
        return SweepSpec(cells, shard_trials=3)

    def test_rows_identical_without_a_store(self):
        from repro.sweep.orchestrator import run_sweep

        spec = self._spec()
        plain = run_sweep(spec)
        with capture() as collector:
            probed = run_sweep(spec)
        assert collector.counters["sweep.cache.miss"] == 2.0
        (cell,) = spec.cells
        assert plain.rows(cell) == probed.rows(cell)

    def test_store_bytes_identical(self, tmp_path):
        from repro.sweep.orchestrator import run_sweep

        spec = self._spec()
        run_sweep(spec, store=tmp_path / "plain")
        with capture() as collector:
            run_sweep(spec, store=tmp_path / "probed")
        assert collector.counters["store.puts"] == 2.0

        # Whole entries: they carry no timestamps, so the bytes match.
        def shard_files(root):
            return {
                path.relative_to(root): path.read_bytes()
                for path in sorted(root.rglob("*.json"))
            }

        plain_files = shard_files(tmp_path / "plain")
        probed_files = shard_files(tmp_path / "probed")
        assert plain_files and plain_files == probed_files

    def test_warm_cache_rows_identical(self, tmp_path):
        from repro.sweep.orchestrator import run_sweep

        spec = self._spec()
        (cell,) = spec.cells
        cold = run_sweep(spec, store=tmp_path)
        with capture() as collector:
            warm = run_sweep(spec, store=tmp_path)
        assert collector.counters["sweep.cache.hit"] == 2.0
        assert collector.counters["store.hit"] == 2.0
        assert warm.report.shards_executed == 0
        assert cold.rows(cell) == warm.rows(cell)
