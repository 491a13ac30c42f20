"""Conformance suite for the message-passing lockstep engines.

Mirrors the beeping conformance contract (``test_conformance.py``) for
:mod:`repro.engine.messages`:

- **bit-equality** across everything that must not change results:
  dense vs sparse backends, the lockstep trial batch vs the seed-by-seed
  loop, and the per-graph fleet vs the block-diagonal armada (including
  ragged trial groups);
- **law agreement** with the per-node reference implementations in
  :mod:`repro.algorithms` — same MIS-validity invariants, matching
  round-count (and accounting) distributions under independent
  randomness;
- **validity always** — a hypothesis property that every fleet-Luby run
  outputs a maximal independent set whatever the graph, backend or seed
  window.
"""

from __future__ import annotations

from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.local_minimum import LocalMinimumIDMIS
from repro.algorithms.luby import LubyMIS
from repro.algorithms.metivier import MetivierMIS, _bits_to_separate
from repro.beeping.faults import FaultModel
from repro.beeping.rng import derive_seed_block
from repro.engine.batch import run_batch
from repro.engine.messages import (
    MESSAGE_RULES,
    MessageArmadaSimulator,
    MessageFleetSimulator,
    _bits_to_separate_u64,
)
from repro.graphs.random_graphs import gnp_random_graph, random_geometric_graph
from repro.graphs.structured import empty_graph, grid_graph, star_graph
from repro.graphs.validation import verify_mis

MASTER_SEED = 0x5EED

BACKENDS = ("dense", "sparse")

MESSAGE_GRAPHS = {
    "gnp-dense": lambda: gnp_random_graph(30, 0.5, Random(601)),
    "gnp-sparse": lambda: gnp_random_graph(45, 0.06, Random(602)),
    "grid": lambda: grid_graph(5, 6),
    "geometric": lambda: random_geometric_graph(25, 0.3, Random(603)),
    "star": lambda: star_graph(9),
    "isolated": lambda: empty_graph(7),
}


@pytest.fixture(params=list(MESSAGE_RULES), ids=list(MESSAGE_RULES))
def rule_name(request) -> str:
    return request.param


@pytest.fixture(params=list(MESSAGE_GRAPHS), ids=list(MESSAGE_GRAPHS))
def message_graph(request):
    return MESSAGE_GRAPHS[request.param]()


def assert_runs_equal(a, b) -> None:
    assert np.array_equal(a.rounds, b.rounds)
    assert np.array_equal(a.membership, b.membership)
    assert np.array_equal(a.messages, b.messages)
    assert np.array_equal(a.bits, b.bits)


class TestBitEquality:
    """Backend, batching and armada stacking never change results."""

    TRIALS = 9

    def test_dense_equals_sparse(self, message_graph, rule_name):
        seeds = derive_seed_block(MASTER_SEED, 0, count=self.TRIALS)
        runs = {
            backend: MessageFleetSimulator(
                message_graph, backend=backend
            ).run_fleet(MESSAGE_RULES[rule_name](), seeds, validate=True)
            for backend in BACKENDS
        }
        assert_runs_equal(runs["dense"], runs["sparse"])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_equals_per_trial_loop(
        self, message_graph, rule_name, backend
    ):
        seeds = derive_seed_block(MASTER_SEED, 1, count=self.TRIALS)
        simulator = MessageFleetSimulator(message_graph, backend=backend)
        rule = MESSAGE_RULES[rule_name]()
        batch = simulator.run_fleet(rule, seeds, validate=True)
        for trial in range(self.TRIALS):
            lone = simulator.run_fleet(rule, seeds[trial : trial + 1])
            assert lone.rounds[0] == batch.rounds[trial]
            assert np.array_equal(
                lone.membership[0], batch.membership[trial]
            )
            assert lone.messages[0] == batch.messages[trial]
            assert lone.bits[0] == batch.bits[trial]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_armada_matches_per_graph_fleet(self, rule_name, backend):
        graphs = [
            gnp_random_graph(22, 0.3, Random(700 + g)) for g in range(3)
        ]
        # Ragged groups, like a trial_range-windowed cell.
        seed_rows = [
            derive_seed_block(MASTER_SEED, g, 1, count=5 - g, start=g)
            for g in range(3)
        ]
        armada = MessageArmadaSimulator(graphs, backend=backend)
        assert armada.backend == backend
        runs = armada.run_armada(
            MESSAGE_RULES[rule_name](), seed_rows, validate=True
        )
        for graph, row, run in zip(graphs, seed_rows, runs):
            lone = MessageFleetSimulator(graph, backend=backend).run_fleet(
                MESSAGE_RULES[rule_name](), row, validate=True
            )
            assert_runs_equal(run, lone)

    def test_armada_mixed_topologies_backends_agree(self):
        graphs = [grid_graph(4, 5), gnp_random_graph(20, 0.4, Random(31)),
                  empty_graph(20)]
        seed_rows = [
            derive_seed_block(77, g, 1, count=3) for g in range(3)
        ]
        rule = MESSAGE_RULES["metivier"]
        dense = MessageArmadaSimulator(graphs, backend="dense").run_armada(
            rule(), seed_rows, validate=True
        )
        sparse = MessageArmadaSimulator(graphs, backend="sparse").run_armada(
            rule(), seed_rows, validate=True
        )
        for d, s in zip(dense, sparse):
            assert_runs_equal(d, s)

    def test_disagreement_is_detectable(self):
        """Different seeds give different traces — equality is not vacuous."""
        graph = gnp_random_graph(25, 0.3, Random(9))
        simulator = MessageFleetSimulator(graph)
        rule = MESSAGE_RULES["luby-permutation"]()
        a = simulator.run_fleet(rule, derive_seed_block(1, 0, count=5))
        b = simulator.run_fleet(rule, derive_seed_block(2, 0, count=5))
        assert not (
            np.array_equal(a.rounds, b.rounds)
            and np.array_equal(a.membership, b.membership)
        )


class TestBatchDispatch:
    """run_batch routes message rules to the message fabric."""

    TRIALS = 8

    def test_batch_matches_seed_by_seed_fleet(self, rule_name):
        graph = gnp_random_graph(24, 0.3, Random(41))
        result = run_batch(
            graph,
            MESSAGE_RULES[rule_name],
            self.TRIALS,
            MASTER_SEED,
            rng_mode="counter",
        )
        assert result.rule_name == rule_name
        simulator = MessageFleetSimulator(graph)
        seeds = derive_seed_block(MASTER_SEED, 0, count=self.TRIALS)
        for trial in range(self.TRIALS):
            lone = simulator.run_fleet(
                MESSAGE_RULES[rule_name](), seeds[trial : trial + 1]
            )
            assert result.rounds[trial] == lone.rounds[0]
        # Message algorithms do not beep.
        assert np.all(result.mean_beeps == 0.0)

    def test_stream_mode_is_rejected(self):
        graph = gnp_random_graph(10, 0.4, Random(3))
        with pytest.raises(ValueError, match="counter"):
            run_batch(
                graph, MESSAGE_RULES["luby-permutation"], 2, 1,
                rng_mode="stream",
            )
        with pytest.raises(ValueError, match="counter"):
            run_batch(
                graph, MESSAGE_RULES["metivier"], 2, 1, rng_mode="stream"
            )

    def test_faults_are_rejected(self):
        graph = gnp_random_graph(10, 0.4, Random(3))
        with pytest.raises(ValueError, match="fault"):
            run_batch(
                graph,
                MESSAGE_RULES["luby-probability"],
                2,
                1,
                rng_mode="counter",
                faults=FaultModel(beep_loss_probability=0.5),
            )


class TestReferenceAgreement:
    """The per-node references agree in law, not bit for bit."""

    TRIALS = 60

    REFERENCES = {
        "luby-permutation": lambda: LubyMIS("permutation"),
        "luby-probability": lambda: LubyMIS("probability"),
        "metivier": MetivierMIS,
        "local-minimum-id": LocalMinimumIDMIS,
    }

    def test_round_and_accounting_distributions_match(self, rule_name):
        graph = gnp_random_graph(30, 0.25, Random(88))
        ref_rounds, ref_messages, ref_bits = [], [], []
        for t in range(self.TRIALS):
            run = self.REFERENCES[rule_name]().run(graph, Random(70_000 + t))
            run.verify()
            ref_rounds.append(run.rounds)
            ref_messages.append(run.messages)
            ref_bits.append(run.bits)
        seeds = derive_seed_block(MASTER_SEED, 5, count=self.TRIALS)
        fleet = MessageFleetSimulator(graph).run_fleet(
            MESSAGE_RULES[rule_name](), seeds, validate=True
        )
        # ~4 standard errors at 60 trials of these few-round distributions.
        assert fleet.rounds.mean() == pytest.approx(
            np.mean(ref_rounds), rel=0.35
        )
        assert fleet.messages.mean() == pytest.approx(
            np.mean(ref_messages), rel=0.35
        )
        assert fleet.bits.mean() == pytest.approx(
            np.mean(ref_bits), rel=0.35
        )


class TestPrefixBits:
    """The vectorised Métivier bit accounting is the reference formula."""

    def test_matches_reference_bit_lengths(self):
        rng = Random(5)
        values = [0, 1, 2, 3, 2**52, 2**53 - 1, 2**53, 2**60 - 1, 2**63,
                  2**64 - 1]
        values += [rng.getrandbits(64) for _ in range(5000)]
        array = np.array(values, dtype=np.uint64)
        got = _bits_to_separate_u64(array)
        expected = np.array(
            [_bits_to_separate(int(v), 0) for v in array], dtype=np.int64
        )
        assert np.array_equal(got, expected)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=40),
    edge_probability=st.floats(min_value=0.0, max_value=1.0),
    graph_seed=st.integers(min_value=0, max_value=2**31),
    master_seed=st.integers(min_value=0, max_value=2**31),
    start=st.integers(min_value=0, max_value=100),
    trials=st.integers(min_value=1, max_value=6),
    backend=st.sampled_from(BACKENDS),
    rule_name=st.sampled_from(sorted(MESSAGE_RULES)),
)
def test_fleet_message_runs_always_output_valid_mis(
    n, edge_probability, graph_seed, master_seed, start, trials, backend,
    rule_name,
):
    """Whatever the graph, backend or seed window, every trial's output
    is a maximal independent set."""
    graph = gnp_random_graph(n, edge_probability, Random(graph_seed))
    seeds = derive_seed_block(master_seed, 0, count=trials, start=start)
    run = MessageFleetSimulator(graph, backend=backend).run_fleet(
        MESSAGE_RULES[rule_name](), seeds
    )
    for trial in range(trials):
        verify_mis(graph, run.mis_set(trial))
