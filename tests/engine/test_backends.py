"""The one backend policy and the operands it selects between.

Every lockstep engine — the beeping armada and fleet, the message and
application armadas and their one-graph fleets — resolves its
``backend`` through :func:`repro.engine.sparse.resolve_backend`, and
every dense operand is scattered from the CSR by
:func:`repro.engine.sparse.csr_to_dense`.  This file pins:

- the policy itself (names, the ``auto`` memory budget, the rejection
  message) and that all six engine classes apply it identically;
- the CSR scatter against ``Graph.adjacency_matrix`` (the per-edge
  reference) on the shapes that break segment bookkeeping: empty,
  all-isolated, trailing-isolated, cross-word edges, stars;
- that ``run_batch`` hands ``backend`` to the message and application
  engines instead of dropping it;
- which armada runs hand their tail to the entry-level frontier, on
  both backends: counter fleets once, stream and beep-recording runs
  never.
"""

from __future__ import annotations

from random import Random

import numpy as np
import pytest

from repro.beeping.rng import derive_seed_block
from repro.engine.applications import (
    APPLICATION_RULES,
    ApplicationArmadaSimulator,
    ApplicationFleetSimulator,
    DominatingSetRule,
)
from repro.engine.batch import run_batch
from repro.engine.fleet import ArmadaSimulator, FleetSimulator
from repro.engine.messages import (
    MESSAGE_RULES,
    MessageArmadaSimulator,
    MessageFleetSimulator,
)
from repro.engine.rules import FeedbackRule
from repro.engine.sparse import (
    BACKENDS,
    DENSE_VERTEX_LIMIT,
    build_csr,
    csr_to_dense,
    resolve_backend,
)
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import (
    complete_graph,
    empty_graph,
    grid_graph,
    star_graph,
)
from repro.telemetry.probes import capture

#: Builds each engine class on a list of graphs with a backend name.
ENGINES = {
    "armada": lambda graphs, backend: ArmadaSimulator(graphs, backend=backend),
    "fleet": lambda graphs, backend: FleetSimulator(
        graphs[0], backend=backend
    ),
    "message-armada": lambda graphs, backend: MessageArmadaSimulator(
        graphs, backend=backend
    ),
    "message-fleet": lambda graphs, backend: MessageFleetSimulator(
        graphs[0], backend=backend
    ),
    "application-armada": lambda graphs, backend: ApplicationArmadaSimulator(
        graphs, DominatingSetRule(), backend=backend
    ),
    "application-fleet": lambda graphs, backend: ApplicationFleetSimulator(
        graphs[0], DominatingSetRule(), backend=backend
    ),
}


class TestResolveBackend:
    def test_backends_are_auto_dense_sparse(self):
        assert BACKENDS == ("auto", "dense", "sparse")

    @pytest.mark.parametrize("backend", ("dense", "sparse"))
    @pytest.mark.parametrize(
        "num_graphs, n", ((1, 0), (1, 10), (3, DENSE_VERTEX_LIMIT + 1))
    )
    def test_explicit_backends_pass_through(self, backend, num_graphs, n):
        assert resolve_backend(backend, num_graphs, n) == backend

    @pytest.mark.parametrize(
        "num_graphs, n, expected",
        (
            (1, 0, "dense"),
            (1, DENSE_VERTEX_LIMIT, "dense"),
            (1, DENSE_VERTEX_LIMIT + 1, "sparse"),
            (4, DENSE_VERTEX_LIMIT // 2, "dense"),
            (5, DENSE_VERTEX_LIMIT // 2, "sparse"),
        ),
    )
    def test_auto_budget_covers_the_whole_stack(self, num_graphs, n, expected):
        assert resolve_backend("auto", num_graphs, n) == expected

    @pytest.mark.parametrize("bad", ("gpu", "csr", "", "Dense"))
    def test_rejection_names_the_allowed_backends(self, bad):
        with pytest.raises(ValueError) as raised:
            resolve_backend(bad, 1, 10)
        assert repr(bad) in str(raised.value)
        for backend in BACKENDS:
            assert repr(backend) in str(raised.value)


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestEveryEngineUsesThePolicy:
    GRAPHS = [grid_graph(3, 4), gnp_random_graph(12, 0.4, Random(5))]

    def test_auto_resolves_like_the_policy(self, engine):
        graphs = self.GRAPHS if "armada" in engine else self.GRAPHS[:1]
        simulator = ENGINES[engine](graphs, "auto")
        assert simulator.backend == resolve_backend("auto", len(graphs), 12)

    @pytest.mark.parametrize("backend", ("dense", "sparse"))
    def test_explicit_backend_is_kept(self, engine, backend):
        assert ENGINES[engine](self.GRAPHS, backend).backend == backend

    def test_unknown_backend_is_rejected_with_the_policy_message(self, engine):
        with pytest.raises(ValueError) as raised:
            ENGINES[engine](self.GRAPHS, "csr")
        with pytest.raises(ValueError) as expected:
            resolve_backend("csr", 1, 12)
        assert str(raised.value) == str(expected.value)


class TestCsrToDense:
    GRAPHS = {
        "empty": empty_graph(0),
        "all-isolated": empty_graph(7),
        "trailing-isolated": Graph(5, [(0, 1)]),
        "cross-word-edge": Graph(67, [(0, 66)]),
        "star": star_graph(9),
        "grid": grid_graph(4, 5),
        "complete": complete_graph(6),
        "gnp": gnp_random_graph(130, 0.15, Random(7)),
    }

    @pytest.mark.parametrize("dtype", (bool, np.float32))
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_matches_the_per_edge_adjacency_matrix(self, name, dtype):
        graph = self.GRAPHS[name]
        n = graph.num_vertices
        columns, starts, _ = build_csr(graph)
        dense = csr_to_dense(columns, starts, np.zeros((n, n), dtype=dtype))
        assert dense.dtype == dtype
        assert np.array_equal(dense, graph.adjacency_matrix().astype(dtype))

    def test_scatters_into_a_stack_slice_in_place(self):
        graphs = [grid_graph(3, 3), star_graph(8)]
        stack = np.zeros((2, 9, 9), dtype=np.float32)
        for g, graph in enumerate(graphs):
            columns, starts, _ = build_csr(graph)
            csr_to_dense(columns, starts, stack[g])
        for g, graph in enumerate(graphs):
            assert np.array_equal(stack[g], graph.adjacency_matrix())


LOCKSTEP_KERNELS = {**MESSAGE_RULES, **APPLICATION_RULES}


@pytest.mark.parametrize("rule_name", sorted(LOCKSTEP_KERNELS))
def test_run_batch_hands_backend_to_message_and_application_engines(
    rule_name,
):
    factory = LOCKSTEP_KERNELS[rule_name]
    graph = gnp_random_graph(14, 0.3, Random(21))
    results = {}
    for backend in ("dense", "sparse"):
        with capture() as collector:
            results[backend] = run_batch(
                graph, factory, 5, 33, rng_mode="counter",
                backend=backend,
            )
        assert collector.counters.get(f"engine.backend.{backend}"), backend
    assert np.array_equal(results["dense"].rounds, results["sparse"].rounds)
    assert np.array_equal(
        results["dense"].mean_beeps, results["sparse"].mean_beeps
    )


@pytest.mark.parametrize("backend", ("dense", "sparse"))
class TestFrontierTelemetry:
    """Which runs hand their tail to the armada's entry-level frontier."""

    def _run(self, backend, **kwargs):
        graph = gnp_random_graph(30, 0.3, Random(9))
        simulator = FleetSimulator(graph, backend=backend)
        seeds = derive_seed_block(404, 0, 1, count=4)
        with capture() as collector:
            simulator.run_fleet(FeedbackRule(), seeds, **kwargs)
        assert collector.counters[f"engine.backend.{backend}"] == 1
        assert collector.counters["engine.armada.runs"] == 1
        assert collector.counters["engine.armada.trials"] == 4
        return collector

    def test_counter_fleet_transitions_once(self, backend):
        collector = self._run(backend, rng_mode="counter")
        # 4 trials x 30 vertices fits the frontier budget immediately, so
        # the run must hand over to the entry-level tail exactly once.
        assert collector.counters["engine.armada.frontier_transitions"] == 1
        assert collector.gauges["engine.armada.frontier_entries"] > 0

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"rng_mode": "stream"},
            {"rng_mode": "counter", "record_beeps": True},
        ),
        ids=("stream", "record-beeps"),
    )
    def test_full_width_runs_never_transition(self, backend, kwargs):
        """Stream generators must keep emitting full rows, and beep
        frames need the whole tensor: neither may reach the frontier."""
        collector = self._run(backend, **kwargs)
        assert "engine.armada.frontier_transitions" not in collector.counters
