"""Shared fixtures for the engine suite: one registry of all fast engines.

The conformance and property tests sweep "every engine x every graph
family x every rule".  This conftest centralises that matrix:

- :func:`engine_run` executes one seeded trial — the one-seed fleet run —
  on any fleet backend by id and returns its
  :class:`~repro.engine.simulator.EngineRun`;
- ``engine_id`` parametrises a test over the two fleet backends
  (dense, sparse);
- ``conformance_graph`` parametrises over the graph families the engines
  must agree on (dense/sparse random, grid, geometric, star, isolated
  vertices).
"""

from __future__ import annotations

from random import Random
from typing import Callable

import pytest

from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.beeping.rng import RNG_MODES
from repro.engine.fleet import FleetSimulator
from repro.engine.rules import (
    FeedbackRule,
    GlobalScheduleRule,
    ProbabilityRule,
    SweepRule,
)
from repro.engine.simulator import EngineRun
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph, random_geometric_graph
from repro.graphs.structured import empty_graph, grid_graph, star_graph

ENGINE_IDS = ("fleet-dense", "fleet-sparse")

#: The conformance baseline every other backend is compared against.
BASELINE_ENGINE = "fleet-dense"

RULE_FACTORIES = {
    "feedback": FeedbackRule,
    "afek-sweep": SweepRule,
}


def make_rule(name: str, graph: Graph) -> ProbabilityRule:
    """A fresh rule instance by name (afek-global needs graph parameters)."""
    if name == "afek-global":
        return GlobalScheduleRule(graph.num_vertices, max(graph.max_degree(), 1))
    return RULE_FACTORIES[name]()


def engine_run(
    engine_id: str,
    graph: Graph,
    rule_factory: Callable[[], ProbabilityRule],
    seed: int,
    max_rounds: int = 100_000,
    faults: FaultModel = NO_FAULTS,
    rng_mode: str = "stream",
) -> EngineRun:
    """One seeded trial on the fleet backend named by ``engine_id``."""
    if engine_id not in ENGINE_IDS:
        raise ValueError(f"unknown engine id {engine_id!r}")
    backend = engine_id.split("-", 1)[1]
    simulator = FleetSimulator(graph, max_rounds=max_rounds, backend=backend)
    return simulator.run_fleet(
        rule_factory(), [seed], faults=faults, rng_mode=rng_mode
    ).trial_run(0)


CONFORMANCE_GRAPHS = {
    "gnp-dense": lambda: gnp_random_graph(40, 0.5, Random(401)),
    "gnp-sparse": lambda: gnp_random_graph(60, 0.05, Random(402)),
    "grid": lambda: grid_graph(6, 5),
    "geometric": lambda: random_geometric_graph(35, 0.3, Random(403)),
    "star": lambda: star_graph(9),
    "isolated": lambda: empty_graph(7),
}


@pytest.fixture(params=ENGINE_IDS)
def engine_id(request) -> str:
    """Every fleet backend, by id."""
    return request.param


@pytest.fixture(params=RNG_MODES)
def rng_mode(request) -> str:
    """Both uniform-stream disciplines, by name."""
    return request.param


@pytest.fixture(
    params=list(CONFORMANCE_GRAPHS), ids=list(CONFORMANCE_GRAPHS)
)
def conformance_graph(request) -> Graph:
    """Every conformance graph family, freshly built."""
    return CONFORMANCE_GRAPHS[request.param]()
