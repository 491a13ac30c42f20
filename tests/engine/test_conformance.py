"""Cross-engine conformance: all fast engines are one engine, observably.

On a shared per-trial seed *and rng mode*, the fleet's dense and sparse
backends must agree **bit for bit** — same round count, same
MIS, same per-node beep counts — because they draw the identical
uniforms and compute the identical ``heard`` booleans.  In ``"stream"``
mode that hinges on a shared sequential draw order (beep uniforms, loss
uniforms, spurious uniforms); in ``"counter"`` mode every uniform is a
pure function of its counter, so the order is moot by construction.  A
batched fleet run must also equal its seed-by-seed one-seed runs row for
row — the lockstep schedule, the alive-mask and the counter-mode
frontier tail must never let trials touch each other.  The
agreement extends to fault-injected and churned runs and, in counter
mode, to the block-diagonal armada batch.  The per-node reference engine
consumes randomness differently, so it is held to MIS validity and
distributional agreement instead.

These tests are the refactoring guard-rail for the engine package: any
semantic drift in one backend (round ordering, probability updates, seed
derivation, fault sampling, armada block stacking) breaks the agreement
immediately.
"""

from __future__ import annotations

from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.afek_sweep import AfekSweepMIS
from repro.algorithms.feedback import FeedbackMIS
from repro.beeping.faults import (
    ChurnSchedule,
    CrashSchedule,
    FaultModel,
    NO_FAULTS,
)
from repro.beeping.rng import RNG_MODES, derive_seed, derive_seed_block
from repro.engine.batch import run_batch
from repro.engine.fleet import FleetSimulator
from repro.engine.rules import FeedbackRule
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.validation import (
    is_independent_set,
    uncovered_vertices,
    verify_mis,
)

from tests.engine.conftest import (
    BASELINE_ENGINE,
    ENGINE_IDS,
    engine_run,
    make_rule,
)

RULE_NAMES = ("feedback", "afek-sweep", "afek-global")
MASTER_SEED = 0xC04F


class TestBitEquality:
    """fleet-dense == fleet-sparse, bit for bit, within each rng mode."""

    @pytest.mark.parametrize("rule_name", RULE_NAMES)
    def test_all_engines_agree_exactly(
        self, conformance_graph, rule_name, rng_mode
    ):
        graph = conformance_graph
        seed = derive_seed(MASTER_SEED, graph.num_vertices, graph.num_edges)
        runs = {
            engine_id: engine_run(
                engine_id,
                graph,
                lambda: make_rule(rule_name, graph),
                seed,
                rng_mode=rng_mode,
            )
            for engine_id in ENGINE_IDS
        }
        baseline = runs[BASELINE_ENGINE]
        for engine_id, run in runs.items():
            assert run.rounds == baseline.rounds, engine_id
            assert run.mis == baseline.mis, engine_id
            assert np.array_equal(
                run.beeps_by_node, baseline.beeps_by_node
            ), engine_id

    def test_disagreement_is_detectable(self, conformance_graph):
        """Different seeds give different traces — equality is not vacuous."""
        graph = conformance_graph
        if graph.num_edges == 0:
            pytest.skip("beep traces on edgeless graphs are degenerate")
        differing = 0
        for offset in range(5):
            a = engine_run(BASELINE_ENGINE, graph, FeedbackRule, 1000 + offset)
            b = engine_run(BASELINE_ENGINE, graph, FeedbackRule, 2000 + offset)
            if a.rounds != b.rounds or not np.array_equal(
                a.beeps_by_node, b.beeps_by_node
            ):
                differing += 1
        assert differing > 0

    def test_modes_draw_different_uniforms(self, conformance_graph):
        """Stream and counter are distinct disciplines — if they ever
        collided the mode key in the sweep cache would be redundant."""
        graph = conformance_graph
        if graph.num_edges == 0:
            pytest.skip("beep traces on edgeless graphs are degenerate")
        differing = 0
        for offset in range(5):
            stream = engine_run(
                BASELINE_ENGINE, graph, FeedbackRule, 5000 + offset,
                rng_mode="stream",
            )
            counter = engine_run(
                BASELINE_ENGINE, graph, FeedbackRule, 5000 + offset,
                rng_mode="counter",
            )
            if stream.rounds != counter.rounds or not np.array_equal(
                stream.beeps_by_node, counter.beeps_by_node
            ):
                differing += 1
        assert differing > 0

    def test_rejects_unknown_rng_mode(self):
        graph = gnp_random_graph(10, 0.4, Random(3))
        with pytest.raises(ValueError, match="rng_mode"):
            engine_run(
                BASELINE_ENGINE, graph, FeedbackRule, 1, rng_mode="quantum"
            )


def _seed_by_seed(graph, rule_factory, master_seed, trials, **kwargs):
    """One lone one-seed run per trial of a ``run_batch`` batch."""
    return [
        engine_run(
            BASELINE_ENGINE,
            graph,
            rule_factory,
            derive_seed(master_seed, 0, t),
            **kwargs,
        )
        for t in range(trials)
    ]


def _assert_batch_matches(batch, lone_runs):
    assert np.array_equal(batch.rounds, [run.rounds for run in lone_runs])
    assert np.array_equal(
        batch.mean_beeps, [run.mean_beeps_per_node for run in lone_runs]
    )


class TestBatchConformance:
    """``run_batch`` reproduces the seed-by-seed one-seed runs bit for bit."""

    TRIALS = 12

    @pytest.mark.parametrize("rule_name", ("feedback", "afek-sweep"))
    def test_fleet_batch_matches_loop(
        self, conformance_graph, rule_name, rng_mode
    ):
        graph = conformance_graph
        batch = run_batch(
            graph,
            lambda: make_rule(rule_name, graph),
            self.TRIALS,
            MASTER_SEED,
            rng_mode=rng_mode,
        )
        assert batch.rule_name == rule_name
        _assert_batch_matches(
            batch,
            _seed_by_seed(
                graph,
                lambda: make_rule(rule_name, graph),
                MASTER_SEED,
                self.TRIALS,
                rng_mode=rng_mode,
            ),
        )

    def test_run_batch_backends_agree(self, conformance_graph):
        graph = conformance_graph
        auto = run_batch(graph, FeedbackRule, self.TRIALS, MASTER_SEED)
        for backend in ("dense", "sparse"):
            other = run_batch(
                graph, FeedbackRule, self.TRIALS, MASTER_SEED,
                backend=backend,
            )
            assert np.array_equal(auto.rounds, other.rounds), backend
            assert np.array_equal(auto.mean_beeps, other.mean_beeps), backend


FAULT_MODELS = {
    "beep-loss": FaultModel(beep_loss_probability=0.3),
    "spurious": FaultModel(spurious_beep_probability=0.2),
    "crashes": FaultModel(
        crash_schedule=CrashSchedule.from_pairs(((1, 0), (1, 3), (2, 6)))
    ),
    "loss+spurious": FaultModel(
        beep_loss_probability=0.2, spurious_beep_probability=0.1
    ),
    "all-three": FaultModel(
        beep_loss_probability=0.15,
        spurious_beep_probability=0.1,
        crash_schedule=CrashSchedule.from_pairs(((0, 2), (3, 5))),
    ),
}


class TestFaultConformance:
    """Fault injection preserves the cross-backend bit-equality."""

    @pytest.mark.parametrize(
        "fault_id", list(FAULT_MODELS), ids=list(FAULT_MODELS)
    )
    @pytest.mark.parametrize("rule_name", ("feedback", "afek-sweep"))
    def test_all_engines_agree_exactly_under_faults(
        self, conformance_graph, rule_name, fault_id, rng_mode
    ):
        graph = conformance_graph
        faults = FAULT_MODELS[fault_id]
        fault_index = list(FAULT_MODELS).index(fault_id)
        seed = derive_seed(
            MASTER_SEED, graph.num_vertices, graph.num_edges, fault_index
        )
        runs = {
            engine_id: engine_run(
                engine_id,
                graph,
                lambda: make_rule(rule_name, graph),
                seed,
                faults=faults,
                rng_mode=rng_mode,
            )
            for engine_id in ENGINE_IDS
        }
        baseline = runs[BASELINE_ENGINE]
        for engine_id, run in runs.items():
            assert run.rounds == baseline.rounds, engine_id
            assert run.mis == baseline.mis, engine_id
            assert run.crashed == baseline.crashed, engine_id
            assert np.array_equal(
                run.beeps_by_node, baseline.beeps_by_node
            ), engine_id

    def test_fault_free_model_changes_nothing(self, engine_id):
        """NO_FAULTS draws no extra randomness: identical to no argument."""
        graph = gnp_random_graph(30, 0.3, Random(5))
        plain = engine_run(graph=graph, engine_id=engine_id,
                           rule_factory=FeedbackRule, seed=91)
        explicit = engine_run(graph=graph, engine_id=engine_id,
                              rule_factory=FeedbackRule, seed=91,
                              faults=NO_FAULTS)
        assert plain.rounds == explicit.rounds
        assert plain.mis == explicit.mis
        assert np.array_equal(plain.beeps_by_node, explicit.beeps_by_node)

    def test_noise_actually_perturbs_the_run(self):
        """Fault equality is not vacuous: noise changes some trace."""
        graph = gnp_random_graph(30, 0.4, Random(8))
        differing = 0
        for offset in range(5):
            clean = engine_run(
                BASELINE_ENGINE, graph, FeedbackRule, 3000 + offset
            )
            noisy = engine_run(
                BASELINE_ENGINE, graph, FeedbackRule, 3000 + offset,
                faults=FaultModel(beep_loss_probability=0.5),
            )
            if clean.rounds != noisy.rounds or not np.array_equal(
                clean.beeps_by_node, noisy.beeps_by_node
            ):
                differing += 1
        assert differing > 0

    def test_total_loss_still_terminates_and_agrees(self):
        """loss=1.0 (silent feedback channel) on a low-degree graph: the
        run degrades but terminates, and the engines still agree."""
        from repro.graphs.structured import grid_graph

        graph = grid_graph(5, 4)
        faults = FaultModel(beep_loss_probability=1.0)
        runs = {
            engine_id: engine_run(
                engine_id, graph, FeedbackRule, 555, faults=faults,
            )
            for engine_id in ENGINE_IDS
        }
        baseline = runs[BASELINE_ENGINE]
        for engine_id, run in runs.items():
            assert run.rounds == baseline.rounds, engine_id
            assert run.mis == baseline.mis, engine_id

    def test_crashed_vertices_recorded_and_excluded(self):
        """A crash before any beep keeps the vertex out of the MIS."""
        graph = gnp_random_graph(20, 0.3, Random(12))
        faults = FaultModel(
            crash_schedule=CrashSchedule.from_pairs(((0, 4), (0, 11)))
        )
        run = engine_run(
            "fleet-dense", graph, FeedbackRule, 77, faults=faults,
        )
        assert run.crashed == {4, 11}
        assert not run.mis & run.crashed

    @pytest.mark.parametrize("rule_name", ("feedback", "afek-sweep"))
    def test_fleet_batch_matches_loop_under_faults(self, rule_name, rng_mode):
        graph = gnp_random_graph(40, 0.3, Random(21))
        faults = FaultModel(
            beep_loss_probability=0.2,
            spurious_beep_probability=0.1,
            crash_schedule=CrashSchedule.from_pairs(((2, 1),)),
        )
        batch = run_batch(
            graph,
            lambda: make_rule(rule_name, graph),
            12,
            MASTER_SEED,
            faults=faults,
            rng_mode=rng_mode,
        )
        _assert_batch_matches(
            batch,
            _seed_by_seed(
                graph,
                lambda: make_rule(rule_name, graph),
                MASTER_SEED,
                12,
                faults=faults,
                rng_mode=rng_mode,
            ),
        )


LOCKSTEP_FAULTS = ("fault-free", "loss+spurious", "crash", "churn")


def _lockstep_faults(kind: str, n: int) -> FaultModel:
    """A fault model of one ``kind`` sized for an ``n >= 3`` base graph."""
    if kind == "fault-free":
        return NO_FAULTS
    if kind == "loss+spurious":
        return FAULT_MODELS["loss+spurious"]
    if kind == "crash":
        return FaultModel(
            crash_schedule=CrashSchedule.from_pairs(((1, 0), (2, n - 1)))
        )
    return FaultModel(
        churn_schedule=ChurnSchedule.from_events(
            (
                ("leave", 1, 0),
                ("sleep", 2, 1),
                ("wake", 4, 1),
                ("join", 3, n, (1, n - 1)),
            )
        )
    )


@pytest.mark.parametrize("fault_kind", LOCKSTEP_FAULTS)
@pytest.mark.parametrize("mode", RNG_MODES)
@pytest.mark.parametrize("backend", ("dense", "sparse"))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=3, max_value=24),
    edge_probability=st.floats(min_value=0.0, max_value=1.0),
    graph_seed=st.integers(min_value=0, max_value=2**31),
    master_seed=st.integers(min_value=0, max_value=2**31),
    trials=st.integers(min_value=2, max_value=6),
)
def test_batch_rows_equal_seed_by_seed_runs(
    backend, mode, fault_kind, n, edge_probability, graph_seed, master_seed,
    trials,
):
    """Row ``t`` of one batched ``run_fleet(seeds)`` is exactly the lone
    ``run_fleet([seeds[t]])``: lockstep, the alive-mask and the frontier
    tail never let one trial's end leak into another's."""
    graph = gnp_random_graph(n, edge_probability, Random(graph_seed))
    faults = _lockstep_faults(fault_kind, n)
    seeds = [
        int(seed) for seed in derive_seed_block(master_seed, 0, count=trials)
    ]
    simulator = FleetSimulator(graph, max_rounds=50_000, backend=backend)
    batch = simulator.run_fleet(
        FeedbackRule(), seeds, faults=faults, rng_mode=mode
    )
    for t, seed in enumerate(seeds):
        lone = simulator.run_fleet(
            FeedbackRule(), [seed], faults=faults, rng_mode=mode
        ).trial_run(0)
        row = batch.trial_run(t)
        assert row.rounds == lone.rounds, t
        assert row.mis == lone.mis, t
        assert np.array_equal(row.beeps_by_node, lone.beeps_by_node), t
        assert row.crashed == lone.crashed, t
        assert row.absent == lone.absent, t
        assert row.repair_rounds == lone.repair_rounds, t
        assert row.recovered == lone.recovered, t


@pytest.mark.parametrize("fault_kind", ("fault-free", "crash"))
@pytest.mark.parametrize("backend", ("dense", "sparse"))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    # Up to 8 x 60 = 480 entries: past the 256-entry frontier floor, so
    # some runs hand over mid-run and small ones start in the frontier.
    n=st.integers(min_value=3, max_value=60),
    edge_probability=st.floats(min_value=0.0, max_value=1.0),
    graph_seed=st.integers(min_value=0, max_value=2**31),
    master_seed=st.integers(min_value=0, max_value=2**31),
    trials=st.integers(min_value=1, max_value=8),
)
def test_frontier_tail_equals_full_width_rounds(
    backend, fault_kind, n, edge_probability, graph_seed, master_seed, trials,
):
    """A counter-mode fleet's frontier tail is invisible: the same run
    with ``record_beeps=True`` (which keeps every round full width)
    agrees row for row."""
    graph = gnp_random_graph(n, edge_probability, Random(graph_seed))
    faults = _lockstep_faults(fault_kind, n)
    seeds = derive_seed_block(master_seed, 0, count=trials)
    simulator = FleetSimulator(graph, backend=backend)
    runs = [
        simulator.run_fleet(
            FeedbackRule(), seeds, faults=faults,
            rng_mode="counter", record_beeps=record,
        )
        for record in (False, True)
    ]
    tail, full = runs
    assert np.array_equal(tail.rounds, full.rounds)
    assert np.array_equal(tail.membership, full.membership)
    assert np.array_equal(tail.beeps_by_node, full.beeps_by_node)
    for t in range(trials):
        assert tail.crashed_set(t) == full.crashed_set(t), t


class TestArmadaConformance:
    """The block-diagonal armada batch (frontier tail included) is
    bit-identical to the per-graph full-width counter-mode fleet runs it
    replaces."""

    @pytest.mark.parametrize("rule_name", ("feedback", "afek-sweep"))
    @pytest.mark.parametrize("backend", ("dense", "sparse"))
    @pytest.mark.parametrize(
        "fault_id", (None, "crashes", "loss+spurious", "all-three"),
        ids=("fault-free", "crashes", "loss+spurious", "all-three"),
    )
    def test_armada_matches_per_graph_fleet(self, backend, fault_id, rule_name):
        from repro.beeping.rng import derive_seed_block
        from repro.engine.fleet import ArmadaSimulator, FleetSimulator

        faults = NO_FAULTS if fault_id is None else FAULT_MODELS[fault_id]
        graphs = [
            gnp_random_graph(22, 0.3, Random(900 + g)) for g in range(3)
        ]
        # Ragged groups, like a trial_range-windowed cell.
        seed_rows = [
            derive_seed_block(MASTER_SEED, g, 1, count=5 - g, start=g)
            for g in range(3)
        ]
        armada = ArmadaSimulator(graphs, backend=backend)
        assert armada.backend == backend
        runs = armada.run_armada(
            make_rule(rule_name, graphs[0]), seed_rows, faults=faults,
        )
        for graph, row, run in zip(graphs, seed_rows, runs):
            # Beep recording keeps the reference full width: no frontier.
            lone = FleetSimulator(graph, backend=backend).run_fleet(
                make_rule(rule_name, graph), row, faults=faults,
                rng_mode="counter", record_beeps=True,
            )
            assert np.array_equal(run.rounds, lone.rounds)
            assert np.array_equal(run.membership, lone.membership)
            assert np.array_equal(run.beeps_by_node, lone.beeps_by_node)
            for t in range(run.trials):
                assert run.crashed_set(t) == lone.crashed_set(t)

    def test_armada_backends_agree(self):
        from repro.beeping.rng import derive_seed_block
        from repro.engine.fleet import ArmadaSimulator
        from repro.graphs.structured import empty_graph, grid_graph

        # Same n, structurally different graphs — including an edgeless
        # one, whose trials finish in a single round.
        graphs = [
            grid_graph(4, 5),
            gnp_random_graph(20, 0.4, Random(31)),
            empty_graph(20),
        ]
        seed_rows = [
            derive_seed_block(77, g, 1, count=3) for g in range(3)
        ]
        dense = ArmadaSimulator(graphs, backend="dense").run_armada(
            FeedbackRule(), seed_rows
        )
        sparse = ArmadaSimulator(graphs, backend="sparse").run_armada(
            FeedbackRule(), seed_rows
        )
        for d, s in zip(dense, sparse):
            assert np.array_equal(d.rounds, s.rounds)
            assert np.array_equal(d.membership, s.membership)
            assert np.array_equal(d.beeps_by_node, s.beeps_by_node)

    @pytest.mark.parametrize("slots", (65, 130))
    @pytest.mark.parametrize(
        "mode, fault_kind",
        (("counter", "fault-free"), ("counter", "churn"),
         ("stream", "fault-free")),
        ids=("counter", "churn", "stream"),
    )
    def test_multiword_armada_backends_agree(self, mode, fault_kind, slots):
        """More than 64 slots per graph: the sparse backend's packed OR
        spans two or three uint64 words and must still equal the dense
        GEMM bit for bit.  The edgeless graph finishes in one round, so
        later stream rounds reduce a graph block with no live rows."""
        from repro.engine.fleet import ArmadaSimulator
        from repro.graphs.structured import empty_graph, grid_graph
        from repro.telemetry.probes import capture

        n = 20
        graphs = [
            grid_graph(4, 5),
            gnp_random_graph(n, 0.3, Random(61)),
            empty_graph(n),
        ]
        faults = _lockstep_faults(fault_kind, n)
        seed_rows = [
            [int(seed) for seed in derive_seed_block(MASTER_SEED, g, 5,
                                                     count=slots)]
            for g in range(3)
        ]
        runs = {}
        for backend in ("dense", "sparse"):
            with capture() as collector:
                runs[backend] = ArmadaSimulator(
                    graphs, backend=backend
                ).run_armada(
                    FeedbackRule(), seed_rows, faults=faults,
                    rng_mode=mode,
                )
            assert collector.counters["engine.armada.dense_rounds"] > 1
        for d, s in zip(runs["dense"], runs["sparse"]):
            assert np.array_equal(d.rounds, s.rounds)
            assert np.array_equal(d.membership, s.membership)
            assert np.array_equal(d.beeps_by_node, s.beeps_by_node)
            for t in range(slots):
                assert d.trial_run(t).absent == s.trial_run(t).absent, t
                assert (
                    d.trial_run(t).repair_rounds
                    == s.trial_run(t).repair_rounds
                ), t

    @pytest.mark.parametrize("backend", ("dense", "sparse"))
    @pytest.mark.parametrize(
        "frontier_entries", (0, None), ids=("full-width", "frontier")
    )
    def test_masked_laned_lockstep_matches_induced_subgraph_fleet(
        self, backend, frontier_entries
    ):
        """The application layers' entry point: a ``_lockstep`` run
        started from a per-slot mask, drawing each kept vertex's rank
        among the kept vertices as its counter lane, equals the counter
        fleet on that slot's relabelled induced subgraph.  The graphs
        are big enough for the dense phase to run before the frontier
        takes over, so both lane draws are exercised."""
        from repro.engine.fleet import ArmadaSimulator
        from repro.telemetry.probes import capture

        graphs = [
            gnp_random_graph(120, 0.1, Random(1200 + g)) for g in range(2)
        ]
        seed_rows = [
            derive_seed_block(MASTER_SEED, g, 2, count=8 - 2 * g)
            for g in range(2)
        ]
        slot_graphs = [g for g, row in enumerate(seed_rows) for _ in row]
        seeds = [seed for row in seed_rows for seed in row]
        mask = np.random.default_rng(31).random((len(seeds), 120)) < 0.7
        mask[0] = True
        mask[1] = False
        lanes = np.cumsum(mask, axis=1) - 1
        armada = ArmadaSimulator(
            graphs, backend=backend, frontier_entries=frontier_entries
        )
        with capture() as collector:
            runs = armada._lockstep(
                FeedbackRule(), seed_rows, NO_FAULTS, "counter", False,
                initial_active=mask, lanes=lanes,
            )
        assert collector.counters["engine.armada.dense_rounds"] > 0
        if frontier_entries is None:
            assert collector.counters["engine.armada.frontier_rounds"] > 0
        rounds = np.concatenate([run.rounds for run in runs])
        membership = np.concatenate([run.membership for run in runs])
        beeps = np.concatenate([run.beeps_by_node for run in runs])
        for slot, (g, seed) in enumerate(zip(slot_graphs, seeds)):
            kept = np.flatnonzero(mask[slot])
            sub = graphs[g].subgraph(kept.tolist())
            lone = FleetSimulator(sub, backend=backend).run_fleet(
                FeedbackRule(), [seed], rng_mode="counter"
            )
            assert rounds[slot] == lone.rounds[0], slot
            assert np.array_equal(membership[slot, kept], lone.membership[0])
            assert np.array_equal(beeps[slot, kept], lone.beeps_by_node[0])
            assert not membership[slot, ~mask[slot]].any(), slot
            assert not beeps[slot, ~mask[slot]].any(), slot

    @pytest.mark.parametrize("fault_kind", LOCKSTEP_FAULTS)
    @pytest.mark.parametrize("backend", ("dense", "sparse"))
    def test_stream_armada_matches_per_graph_and_one_seed_fleets(
        self, backend, fault_kind
    ):
        """Stream-mode stacking: every slot draws from its own
        generator, so each graph's rows equal its per-graph stream fleet
        and every slot equals the one-seed stream fleet on its seed."""
        from repro.engine.fleet import ArmadaSimulator

        n = 18
        graphs = [
            gnp_random_graph(n, 0.3, Random(950 + g)) for g in range(3)
        ]
        faults = _lockstep_faults(fault_kind, n)
        # Ragged groups: the stream loop reduces only live slot rows.
        seed_rows = [
            [int(seed) for seed in derive_seed_block(MASTER_SEED, g, 3,
                                                     count=4 - g)]
            for g in range(3)
        ]
        runs = ArmadaSimulator(graphs, backend=backend).run_armada(
            FeedbackRule(), seed_rows, faults=faults,
            rng_mode="stream",
        )
        for graph, row, run in zip(graphs, seed_rows, runs):
            fleet = FleetSimulator(graph, backend=backend)
            per_graph = fleet.run_fleet(
                FeedbackRule(), row, faults=faults, rng_mode="stream"
            )
            for t, seed in enumerate(row):
                lone = fleet.run_fleet(
                    FeedbackRule(), [seed], faults=faults, rng_mode="stream"
                ).trial_run(0)
                slot = run.trial_run(t)
                for expected in (per_graph.trial_run(t), lone):
                    assert slot.rounds == expected.rounds, t
                    assert slot.mis == expected.mis, t
                    assert np.array_equal(
                        slot.beeps_by_node, expected.beeps_by_node
                    ), t
                    assert slot.crashed == expected.crashed, t
                    assert slot.absent == expected.absent, t
                    assert slot.repair_rounds == expected.repair_rounds, t
                    assert slot.recovered == expected.recovered, t


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=40),
    edge_probability=st.floats(min_value=0.0, max_value=1.0),
    graph_seed=st.integers(min_value=0, max_value=2**31),
    trial_seed=st.integers(min_value=0, max_value=2**31),
    # Heavy loss on a dense graph approaches the no-feedback regime whose
    # expected round count is exponential in the degree; 0.6 keeps every
    # draw comfortably inside the round budget.
    loss=st.floats(min_value=0.0, max_value=0.6),
    spurious=st.floats(min_value=0.0, max_value=0.4),
    crash_pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=39),
        ),
        max_size=6,
    ),
    engine_id=st.sampled_from(ENGINE_IDS),
)
def test_faulty_runs_still_output_valid_independent_sets(
    n, edge_probability, graph_seed, trial_seed, loss, spurious, crash_pairs,
    engine_id,
):
    """Whatever the noise, the output is independent and maximal over
    the survivors — noise may slow the run down but never corrupt it."""
    graph = gnp_random_graph(n, edge_probability, Random(graph_seed))
    faults = FaultModel(
        beep_loss_probability=loss,
        spurious_beep_probability=spurious,
        crash_schedule=CrashSchedule.from_pairs(crash_pairs),
    )
    run = engine_run(
        engine_id, graph, FeedbackRule, trial_seed, max_rounds=50_000,
        faults=faults,
    )
    assert is_independent_set(graph, run.mis)
    assert not run.mis & run.crashed
    assert run.crashed <= set(range(n))
    uncovered = set(uncovered_vertices(graph, run.mis))
    assert uncovered <= run.crashed
    # And the crash-aware verifier agrees.
    verify_mis(graph, run.mis, crashed=run.crashed)


class TestReferenceAgreement:
    """The per-node reference engine agrees in law, not bit for bit."""

    TRIALS = 40

    @pytest.mark.parametrize(
        "algorithm_factory,rule_name",
        [(FeedbackMIS, "feedback"), (AfekSweepMIS, "afek-sweep")],
    )
    def test_distributional_agreement_all_engines(
        self, engine_id, algorithm_factory, rule_name
    ):
        graph = gnp_random_graph(30, 0.3, Random(77))
        ref_rounds = []
        ref_beeps = []
        for t in range(self.TRIALS):
            run = algorithm_factory().run(graph, Random(40_000 + t))
            verify_mis(graph, run.mis)
            ref_rounds.append(run.rounds)
            ref_beeps.append(run.mean_beeps_per_node)
        eng_rounds = []
        eng_beeps = []
        for t in range(self.TRIALS):
            run = engine_run(
                engine_id,
                graph,
                lambda: make_rule(rule_name, graph),
                derive_seed(MASTER_SEED, 7, t),
            )
            eng_rounds.append(run.rounds)
            eng_beeps.append(run.mean_beeps_per_node)
        ref_mean_rounds = sum(ref_rounds) / self.TRIALS
        eng_mean_rounds = sum(eng_rounds) / self.TRIALS
        ref_mean_beeps = sum(ref_beeps) / self.TRIALS
        eng_mean_beeps = sum(eng_beeps) / self.TRIALS
        # ~4 standard errors at 40 trials of a few-round-std distribution.
        assert eng_mean_rounds == pytest.approx(ref_mean_rounds, rel=0.35)
        assert eng_mean_beeps == pytest.approx(
            ref_mean_beeps, rel=0.35, abs=0.5
        )
