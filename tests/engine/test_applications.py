"""Conformance wall for the application kernels.

The vectorised application engines must reproduce the per-node
reductions in :mod:`repro.applications` *exactly*: feeding the unchanged
reference code an :class:`~repro.engine.applications.EngineMIS` adapter
(which runs each inner MIS as a one-trial counter fleet on the matching
layer seed) yields the very colouring / matching / chosen set the kernel
computed for the same trial seed.  On top of that exact lock, the
kernels carry the same bit-equality contracts as the other engines:
dense == sparse, batch == per-trial, armada == per-graph fleet, and all
batch dispatch strategies agree.
"""

from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.applications.coloring import mis_coloring
from repro.applications.dominating import mis_dominating_set
from repro.applications.matching import line_graph, mis_matching
from repro.applications.ruling_sets import graph_power, ruling_set
from repro.beeping.faults import FaultModel
from repro.beeping.rng import derive_seed_block
from repro.engine.applications import (
    APPLICATION_RULES,
    ApplicationArmadaSimulator,
    ApplicationFleetSimulator,
    ColoringRule,
    DominatingSetRule,
    EngineMIS,
    MatchingRule,
    RulingSetRule,
    graph_power_matrix,
    line_graph_arrays,
)
from repro.engine.batch import run_batch
from repro.engine.simulator import DEFAULT_MAX_ROUNDS
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import empty_graph, grid_graph, star_graph

MASTER_SEED = 0x5EED
BACKENDS = ("dense", "sparse")

APPLICATION_GRAPHS = {
    "gnp-dense": lambda: gnp_random_graph(18, 0.4, Random(601)),
    "gnp-sparse": lambda: gnp_random_graph(30, 0.08, Random(602)),
    "grid": lambda: grid_graph(4, 5),
    "star": lambda: star_graph(7),
    "isolated": lambda: empty_graph(6),
}


@pytest.fixture(params=sorted(APPLICATION_RULES))
def rule_name(request):
    return request.param


@pytest.fixture(params=sorted(APPLICATION_GRAPHS))
def application_graph(request):
    return APPLICATION_GRAPHS[request.param]()


def assert_runs_equal(a, b):
    assert a.rule_name == b.rule_name
    assert a.num_vertices == b.num_vertices
    assert np.array_equal(a.rounds, b.rounds)
    assert np.array_equal(a.layers, b.layers)
    assert np.array_equal(a.colors, b.colors)
    assert np.array_equal(a.beeps_by_node, b.beeps_by_node)


class TestHostConstructions:
    """The array-built host graphs equal their per-node counterparts."""

    def test_line_graph_matches_reference(self, application_graph):
        ref_lg, ref_edges = line_graph(application_graph)
        arr_lg, edge_u, edge_v = line_graph_arrays(application_graph)
        assert arr_lg == ref_lg
        assert (
            list(zip(edge_u.tolist(), edge_v.tolist()))
            == [tuple(edge) for edge in ref_edges]
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_graph_power_matches_bfs(self, application_graph, k):
        assert graph_power_matrix(application_graph, k) == graph_power(
            application_graph, k
        )

    def test_graph_power_rejects_k_zero(self):
        with pytest.raises(ValueError, match="k must be"):
            graph_power_matrix(grid_graph(2, 2), 0)


class TestReferenceExactConformance:
    """Same seed -> bit-identical outputs from kernel and reference."""

    TRIALS = 3

    def _kernel_run(self, graph, rule):
        seeds = derive_seed_block(MASTER_SEED, 9, count=self.TRIALS)
        sim = ApplicationFleetSimulator(graph, rule)
        return seeds, sim.run_fleet(seeds, validate=True)

    def test_coloring(self, application_graph):
        seeds, run = self._kernel_run(application_graph, ColoringRule())
        for t in range(self.TRIALS):
            ref = mis_coloring(
                application_graph,
                Random(0),
                algorithm=EngineMIS(int(seeds[t])),
            )
            assert run.colors_list(t) == list(ref.colors)
            assert run.num_colors(t) == ref.num_colors
            assert int(run.rounds[t]) == ref.total_rounds

    def test_matching(self, application_graph):
        rule = MatchingRule()
        seeds, run = self._kernel_run(application_graph, rule)
        for t in range(self.TRIALS):
            ref = mis_matching(
                application_graph,
                Random(0),
                algorithm=EngineMIS(int(seeds[t])),
            )
            assert (
                rule.matching_edges(application_graph, run, t)
                == ref.matching
            )
            assert int(run.rounds[t]) == ref.rounds

    def test_dominating(self, application_graph):
        seeds, run = self._kernel_run(application_graph, DominatingSetRule())
        for t in range(self.TRIALS):
            ref = mis_dominating_set(
                application_graph,
                Random(0),
                algorithm=EngineMIS(int(seeds[t])),
            )
            assert run.chosen_set(t) == ref

    def test_ruling(self, application_graph):
        seeds, run = self._kernel_run(application_graph, RulingSetRule())
        for t in range(self.TRIALS):
            ref = ruling_set(
                application_graph,
                3,
                Random(0),
                algorithm=EngineMIS(int(seeds[t])),
            )
            assert run.chosen_set(t) == ref


class TestBitEquality:
    TRIALS = 9

    def test_dense_equals_sparse(self, rule_name, application_graph):
        rule = APPLICATION_RULES[rule_name]()
        seeds = derive_seed_block(MASTER_SEED, 0, count=self.TRIALS)
        runs = {
            backend: ApplicationFleetSimulator(
                application_graph,
                APPLICATION_RULES[rule_name](),
                backend=backend,
            ).run_fleet(seeds, validate=True)
            for backend in BACKENDS
        }
        assert rule.name == rule_name
        assert_runs_equal(runs["dense"], runs["sparse"])

    def test_batch_equals_per_trial(self, rule_name, application_graph):
        seeds = derive_seed_block(MASTER_SEED, 1, count=self.TRIALS)
        simulator = ApplicationFleetSimulator(
            application_graph, APPLICATION_RULES[rule_name]()
        )
        batch = simulator.run_fleet(seeds, validate=True)
        for trial in range(self.TRIALS):
            solo = simulator.run_fleet(seeds[trial : trial + 1])
            assert np.array_equal(solo.rounds[0:1], batch.rounds[trial : trial + 1])
            assert np.array_equal(solo.colors[0], batch.colors[trial])
            assert np.array_equal(
                solo.beeps_by_node[0], batch.beeps_by_node[trial]
            )

    def test_armada_equals_per_graph_fleet(self, rule_name):
        rule_factory = APPLICATION_RULES[rule_name]
        if rule_name == "mis-matching":
            # Armada needs equal *host* sizes — for matching, equal edge
            # counts; relabelled copies of one base graph guarantee it.
            base = gnp_random_graph(16, 0.3, Random(700))
            permutations = [
                list(range(16)),
                list(reversed(range(16))),
                [(v * 7 + 3) % 16 for v in range(16)],
            ]
            graphs = [
                Graph(16, [(p[u], p[v]) for u, v in base.edges()])
                for p in permutations
            ]
        else:
            graphs = [
                gnp_random_graph(16, 0.3, Random(700 + g)) for g in range(3)
            ]
        seed_rows = [
            derive_seed_block(MASTER_SEED, g, 1, count=5 - g, start=g)
            for g in range(3)
        ]
        armada_runs = ApplicationArmadaSimulator(
            graphs, rule_factory()
        ).run_armada(seed_rows, validate=True)
        for graph, row, armada_run in zip(graphs, seed_rows, armada_runs):
            fleet_run = ApplicationFleetSimulator(
                graph, rule_factory()
            ).run_fleet(row, validate=True)
            assert_runs_equal(armada_run, fleet_run)

    def test_disagreement_detectable(self, rule_name):
        """Different seeds give different outputs (the equality tests
        above cannot pass vacuously)."""
        graph = gnp_random_graph(18, 0.4, Random(601))
        simulator = ApplicationFleetSimulator(
            graph, APPLICATION_RULES[rule_name]()
        )
        a = simulator.run_fleet(derive_seed_block(MASTER_SEED, 2, count=6))
        b = simulator.run_fleet(derive_seed_block(MASTER_SEED, 3, count=6))
        assert not (
            np.array_equal(a.colors, b.colors)
            and np.array_equal(a.rounds, b.rounds)
        )


class TestBatchDispatch:
    def test_batch_matches_seed_by_seed_fleet(self, rule_name):
        graph = gnp_random_graph(16, 0.3, Random(41))
        result = run_batch(
            graph,
            APPLICATION_RULES[rule_name],
            trials=6,
            master_seed=97,
            rng_mode="counter",
            validate=True,
        )
        simulator = ApplicationFleetSimulator(
            graph, APPLICATION_RULES[rule_name]()
        )
        seeds = derive_seed_block(97, 0, count=6)
        for trial in range(6):
            lone = simulator.run_fleet(seeds[trial : trial + 1])
            assert result.rounds[trial] == lone.rounds[0]
            assert result.mean_beeps[trial] == lone.mean_beeps[0]

    def test_rejects_stream_mode(self, rule_name):
        graph = gnp_random_graph(10, 0.3, Random(42))
        with pytest.raises(ValueError, match="counter"):
            run_batch(
                graph,
                APPLICATION_RULES[rule_name],
                trials=2,
                master_seed=1,
                rng_mode="stream",
            )

    def test_rejects_faults(self, rule_name):
        graph = gnp_random_graph(10, 0.3, Random(42))
        with pytest.raises(ValueError, match="fault"):
            run_batch(
                graph,
                APPLICATION_RULES[rule_name],
                trials=2,
                master_seed=1,
                rng_mode="counter",
                faults=FaultModel(beep_loss_probability=0.5),
            )


class TestSweepIntegration:
    def test_cellspec_accepts_application_rules(self, rule_name):
        from repro.sweep.spec import CellSpec

        cell = CellSpec(algorithm=rule_name, n=16, trials=4)
        assert cell.execution_fingerprint()["algorithm"] == rule_name

    def test_cellspec_rejects_stream_mode(self, rule_name):
        from repro.sweep.spec import CellSpec

        with pytest.raises(ValueError, match="counter"):
            CellSpec(algorithm=rule_name, n=16, trials=4, rng_mode="stream")

    def test_cellspec_rejects_faults(self, rule_name):
        from repro.sweep.spec import CellSpec

        with pytest.raises(ValueError, match="fault"):
            CellSpec(algorithm=rule_name, n=16, trials=4, beep_loss=0.2)

    def test_fleet_trials_window_equals_full_run(self, rule_name):
        from repro.experiments.runner import run_fleet_trials

        def graph_factory(rng):
            return gnp_random_graph(14, 0.3, rng)

        full = run_fleet_trials(
            APPLICATION_RULES[rule_name], graph_factory, 6, 77, graphs=2
        )
        window = run_fleet_trials(
            APPLICATION_RULES[rule_name],
            graph_factory,
            6,
            77,
            graphs=2,
            trial_range=(2, 5),
        )
        assert full[2:5] == window

    def test_comparison_panel_accepts_applications(self):
        from repro.experiments.compare import comparison_experiment

        result = comparison_experiment(
            algorithms=("feedback", "mis-coloring"),
            sizes=(16,),
            trials=4,
        )
        series = {point.series for point in result.rounds.points}
        assert series == {"feedback", "mis-coloring"}


class TestValidity:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=1, max_value=24),
        p=st.floats(min_value=0.0, max_value=0.6),
        trials=st.integers(min_value=1, max_value=4),
        graph_seed=st.integers(min_value=0, max_value=50),
        backend=st.sampled_from(BACKENDS),
        name=st.sampled_from(sorted(APPLICATION_RULES)),
    )
    def test_every_trial_validates(
        self, n, p, trials, graph_seed, backend, name
    ):
        graph = gnp_random_graph(n, p, Random(graph_seed))
        seeds = derive_seed_block(MASTER_SEED, graph_seed, count=trials)
        ApplicationFleetSimulator(
            graph, APPLICATION_RULES[name](), backend=backend
        ).run_fleet(seeds, validate=True)


class TestLayerLoop:
    """Each colouring layer is one armada run with its own round budget."""

    def _coloring(self, max_rounds=DEFAULT_MAX_ROUNDS):
        graph = gnp_random_graph(40, 0.3, Random(604))
        seeds = derive_seed_block(MASTER_SEED, 9, count=6)
        (run,) = ApplicationArmadaSimulator(
            [graph], ColoringRule(), max_rounds
        ).run_armada([seeds], validate=True)
        return run

    def test_round_cap_raises(self):
        with pytest.raises(RuntimeError, match="exceeded 1 rounds"):
            self._coloring(max_rounds=1)

    def test_round_cap_is_per_layer(self):
        full = self._coloring()
        for cap in range(1, int(full.rounds.max()) + 1):
            try:
                capped = self._coloring(max_rounds=cap)
            except RuntimeError:
                continue
            break
        else:
            pytest.fail("no cap below the summed round count completes")
        # The smallest cap that completes fits every layer but not the
        # whole peeling: the budget restarts at each layer.
        assert full.rounds.max() > cap
        assert full.layers.max() > 1
        assert_runs_equal(capped, full)

    def test_telemetry_counts_one_armada_run_per_layer(self):
        from repro.telemetry.probes import capture

        with capture() as collector:
            run = self._coloring()
        layers = int(run.layers.max())
        assert layers > 1
        assert collector.counters["engine.application.runs"] == 1
        assert collector.counters["engine.application.layers"] == layers
        assert collector.counters["engine.armada.runs"] == layers
