"""Property-based MIS validity: every engine, every graph family.

Seeded exhaustively by ``derive_seed`` (no hypothesis dependency — the
whole sweep is one deterministic matrix), these tests assert the single
non-negotiable engine property: *whatever* the topology, every trial's
output passes :func:`verify_mis`.  Families cover the regimes the engines
specialise in — dense and sparse G(n, p) (including p = 0 and p = 1
extremes), grids, and random geometric graphs — times every fleet
backend times two rules, both one seed at a time and as a lockstep batch.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.beeping.rng import derive_seed, derive_seed_block
from repro.engine.fleet import FleetSimulator
from repro.engine.rules import FeedbackRule, SweepRule
from repro.graphs.random_graphs import gnp_random_graph, random_geometric_graph
from repro.graphs.structured import grid_graph
from repro.graphs.validation import verify_mis

from tests.engine.conftest import engine_run

MASTER_SEED = 0x9115

GRAPH_FAMILIES = {
    "gnp": lambda draw: gnp_random_graph(
        1 + draw % 30, (draw % 11) / 10.0, Random(derive_seed(MASTER_SEED, 1, draw))
    ),
    "grid": lambda draw: grid_graph(1 + draw % 6, 1 + (draw // 6) % 6),
    "geometric": lambda draw: random_geometric_graph(
        1 + draw % 25,
        0.05 + (draw % 7) / 8.0,
        Random(derive_seed(MASTER_SEED, 2, draw)),
    ),
}

DRAWS_PER_FAMILY = 12


@pytest.mark.parametrize("family", list(GRAPH_FAMILIES))
@pytest.mark.parametrize("rule_factory", (FeedbackRule, SweepRule))
def test_engine_output_is_always_a_valid_mis(engine_id, family, rule_factory):
    make_graph = GRAPH_FAMILIES[family]
    for draw in range(DRAWS_PER_FAMILY):
        graph = make_graph(draw)
        run = engine_run(
            engine_id,
            graph,
            rule_factory,
            derive_seed(MASTER_SEED, 3, draw),
            max_rounds=50_000,
        )
        verify_mis(graph, run.mis)


@pytest.mark.parametrize("family", list(GRAPH_FAMILIES))
@pytest.mark.parametrize("rule_factory", (FeedbackRule, SweepRule))
@pytest.mark.parametrize("backend", ("dense", "sparse"))
def test_fleet_batch_every_trial_is_a_valid_mis(backend, rule_factory, family):
    """One lockstep batch per graph: all trials must verify, not just one."""
    make_graph = GRAPH_FAMILIES[family]
    for draw in range(0, DRAWS_PER_FAMILY, 3):
        graph = make_graph(draw)
        simulator = FleetSimulator(graph, max_rounds=50_000, backend=backend)
        seeds = derive_seed_block(MASTER_SEED, 4, draw, count=6)
        run = simulator.run_fleet(rule_factory(), seeds)
        for trial in range(run.trials):
            verify_mis(graph, run.mis_set(trial))
