"""Beyond the paper: Theorem 2's O(log n) curve at 20x the paper's scale.

The paper's Figure 3 stops at n = 1000 (its testbed was a dense G(n, 1/2)
simulation).  The fleet's sparse CSR backend lets the reproduction push
the same measurement to tens of thousands of nodes on constant-mean-degree
networks — the regime real sensor deployments live in — and check that
the log fit keeps holding.
"""

from __future__ import annotations

import math
from random import Random

import pytest

from benchmarks.conftest import report
from repro.analysis.regression import fit_log2
from repro.beeping.rng import derive_seed, derive_seed_block
from repro.engine.fleet import FleetSimulator
from repro.engine.rules import FeedbackRule
from repro.experiments.tables import format_table
from repro.graphs.random_graphs import gnp_random_graph

GRAPHS_PER_SIZE = 2


def _sparse_graph(n: int, seed: int):
    p = min(1.0, 8.0 / max(n - 1, 1))
    return gnp_random_graph(n, p, Random(seed))


@pytest.fixture(scope="module")
def scaling(scale):
    """Mean rounds/beeps per size, measured with the fleet engine.

    Trials are spread over ``GRAPHS_PER_SIZE`` independent graphs per size
    and each group runs as one lockstep sparse-backend fleet batch — a
    seed-by-seed loop would produce the same per-seed results but pay
    the round loop per trial.
    """
    if scale.name == "paper":
        sizes = (500, 1000, 2000, 5000, 10_000, 20_000)
        trials = 10
    else:
        sizes = (500, 1000, 2000, 5000)
        trials = 5
    results = []
    # Exact split of `trials` over the graph groups (remainder spread
    # over the first groups), so the reported trial count is the real one.
    group_sizes = [trials // GRAPHS_PER_SIZE] * GRAPHS_PER_SIZE
    for extra in range(trials % GRAPHS_PER_SIZE):
        group_sizes[extra] += 1
    for size_index, n in enumerate(sizes):
        rounds = []
        beeps = []
        for g, group_trials in enumerate(group_sizes):
            if group_trials == 0:
                continue
            graph = _sparse_graph(n, derive_seed(2001, size_index, g))
            simulator = FleetSimulator(graph, backend="sparse")
            seeds = derive_seed_block(2002, size_index, g, count=group_trials)
            run = simulator.run_fleet(FeedbackRule(), seeds)
            rounds.extend(int(r) for r in run.rounds)
            beeps.extend(float(b) for b in run.mean_beeps)
        results.append(
            (n, sum(rounds) / len(rounds), sum(beeps) / len(beeps))
        )
    return trials, results


def test_scaling_regenerate(benchmark):
    graph = _sparse_graph(2000, 77)
    simulator = FleetSimulator(graph, backend="sparse")
    counter = iter(range(10_000))

    def run_once():
        return simulator.run_fleet(FeedbackRule(), [next(counter)])

    run = benchmark(run_once)
    assert int(run.rounds[0]) >= 1


def test_scaling_log_fit_beyond_paper(benchmark, scaling, scale):
    trials, results = scaling
    sizes = [n for n, _rounds, _beeps in results]
    rounds = [mean_rounds for _n, mean_rounds, _beeps in results]
    beeps = [mean_beeps for _n, _rounds, mean_beeps in results]
    fit = benchmark(fit_log2, sizes, rounds)

    rows = [
        [n, f"{r:.1f}", f"{fit.predict(math.log2(n)):.1f}", f"{b:.2f}"]
        for (n, r, b) in results
    ]
    report(
        f"SCALING (scale={scale.name}): feedback on mean-degree-8 G(n, p), "
        f"{trials} trials per size",
        format_table(
            ["n", "mean rounds", "log2-fit prediction", "beeps/node"], rows
        )
        + f"\n\nfit: {fit.format()}",
    )
    # O(log n) shape persists at 20x the paper's sizes...
    assert fit.r_squared > 0.8
    assert rounds[-1] < 8 * math.log2(sizes[-1])
    # ...doubling n adds roughly a constant number of rounds.
    assert rounds[-1] - rounds[0] < 4 * math.log2(sizes[-1] / sizes[0]) + 4
    # Theorem 6 still holds out here.
    assert max(beeps) < 3.0
