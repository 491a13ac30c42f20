"""Engine microbenchmarks: reference vs vectorised throughput (one trial
and whole batches), and the baseline algorithms' wall-clock on a common
workload.

Not a paper artefact — this is the harness's own performance regression
suite, and the justification for having two engines at all.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.algorithms.feedback import FeedbackMIS
from repro.algorithms.luby import LubyMIS
from repro.algorithms.metivier import MetivierMIS
from repro.beeping.rng import spawn_rng
from repro.engine.fleet import FleetSimulator
from repro.engine.rules import FeedbackRule
from repro.graphs.random_graphs import gnp_random_graph


@pytest.fixture(scope="module")
def workload():
    return gnp_random_graph(200, 0.5, spawn_rng(31, 0))


def test_reference_engine_throughput(benchmark, workload):
    algorithm = FeedbackMIS()
    counter = iter(range(10_000))

    def run_once():
        return algorithm.run(workload, Random(next(counter)))

    run = benchmark(run_once)
    assert run.rounds >= 1


def test_vectorized_engine_throughput(benchmark, workload):
    """One trial per iteration: the one-seed dense fleet run."""
    simulator = FleetSimulator(workload, backend="dense")
    counter = iter(range(10_000))

    def run_once():
        return simulator.run_fleet(FeedbackRule(), [next(counter)])

    run = benchmark(run_once)
    assert int(run.rounds[0]) >= 1


def test_fleet_engine_throughput(benchmark, workload):
    """Whole 32-trial batches per iteration — the fleet's unit of work."""
    from repro.beeping.rng import derive_seed_block

    simulator = FleetSimulator(workload)
    counter = iter(range(10_000))

    def run_once():
        seeds = derive_seed_block(97, next(counter), count=32)
        return simulator.run_fleet(FeedbackRule(), seeds)

    run = benchmark(run_once)
    assert int(run.rounds.min()) >= 1


def test_luby_throughput(benchmark, workload):
    algorithm = LubyMIS("permutation")
    counter = iter(range(10_000))

    def run_once():
        return algorithm.run(workload, Random(next(counter)))

    run = benchmark(run_once)
    assert run.rounds >= 1


def test_metivier_throughput(benchmark, workload):
    algorithm = MetivierMIS()
    counter = iter(range(10_000))

    def run_once():
        return algorithm.run(workload, Random(next(counter)))

    run = benchmark(run_once)
    assert run.rounds >= 1
