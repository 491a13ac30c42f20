"""Multi-trial batch driver for the vectorised engines.

This is what the figure benchmarks call: for one graph (or one graph
generator) run ``trials`` independent simulations and return the round and
beep statistics as arrays.  Seeds are derived with the same splitmix
discipline as the reference engine, so a batch is reproducible from its
master seed alone.

All trials advance in lockstep as ``(trials, n)`` tensors on the
:class:`~repro.engine.fleet.FleetSimulator` — one batched matmul, CSR
``reduceat`` or packed bitboard pass per round for the whole batch.
Trial ``t`` is seeded with ``derive_seed(master_seed, graph_index,
trial)``, so it equals the one-seed fleet run on that seed bit for bit.
The driver accepts a ``faults`` model (beep loss, spurious beeps,
crashes, churn — see :mod:`repro.beeping.faults`) and an ``rng_mode``
(``"stream"``, the golden-trace-pinned default, or the stateless
``"counter"`` discipline — see :mod:`repro.beeping.rng`).  The rule must
be ``trial_parallel``; a stateful rule is rejected with ``ValueError``.

Message-passing rules (:class:`~repro.engine.messages.MessageRule` — the
Luby variants, Métivier, local-minimum-id) batch through the same entry
point as one lockstep
:class:`~repro.engine.messages.MessageFleetSimulator` batch.  They are
counter-only (``rng_mode="counter"`` required) and reject fault models —
the per-node message baselines ignore faults, so a silently dropped
model would misreport robustness results.

Application rules (:class:`~repro.engine.applications.ApplicationRule` —
MIS-peeling colouring, matching, dominating and ruling sets) batch the
same way, as one lockstep
:class:`~repro.engine.applications.ApplicationFleetSimulator` batch over
complete reductions.  Like the message rules they are counter-only and
fault-free; ``rounds`` counts beeping rounds summed over all MIS layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.beeping.rng import derive_seed_block
from repro.engine.applications import (
    ApplicationFleetSimulator,
    ApplicationRule,
    check_application_run,
)
from repro.engine.fleet import FleetSimulator
from repro.engine.messages import (
    MessageFleetSimulator,
    MessageRule,
    check_message_run,
)
from repro.engine.rules import ProbabilityRule
from repro.graphs.graph import Graph


@dataclass
class BatchResult:
    """Statistics over one batch of independent trials."""

    rule_name: str
    num_vertices: int
    trials: int
    rounds: np.ndarray
    mean_beeps: np.ndarray

    @property
    def mean_rounds(self) -> float:
        """Mean round count over the batch."""
        return float(self.rounds.mean())

    @property
    def std_rounds(self) -> float:
        """Sample standard deviation of the round count."""
        if self.trials < 2:
            return 0.0
        return float(self.rounds.std(ddof=1))

    @property
    def mean_beeps_per_node(self) -> float:
        """Mean (over trials) of the per-trial mean beeps per node."""
        return float(self.mean_beeps.mean())

    @property
    def std_beeps_per_node(self) -> float:
        """Sample standard deviation of per-trial mean beeps per node."""
        if self.trials < 2:
            return 0.0
        return float(self.mean_beeps.std(ddof=1))


def run_batch(
    graph: Graph,
    rule_factory: Callable[[], ProbabilityRule],
    trials: int,
    master_seed: int,
    graph_index: int = 0,
    validate: bool = False,
    max_rounds: int = 100_000,
    faults: FaultModel = NO_FAULTS,
    rng_mode: str = "stream",
    backend: str = "auto",
) -> BatchResult:
    """Run ``trials`` independent simulations of one rule on one graph.

    ``rule_factory`` is called once; the one instance drives every
    trial, so the rule must be ``trial_parallel``.  ``graph_index``
    namespaces the seed derivation when one experiment uses several
    graphs under the same master seed.  ``backend`` selects the fleet's
    neighbour-reduction kernel (``"auto"``, ``"dense"``, ``"sparse"`` or
    ``"bitboard"``; :class:`~repro.engine.fleet.FleetSimulator`) — pure
    execution strategy, bit-identical results.  ``rng_mode`` *does*
    affect results: the two disciplines draw different uniforms.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rule = rule_factory()
    seeds = derive_seed_block(master_seed, graph_index, count=trials)
    if isinstance(rule, MessageRule):
        check_message_run(rule, faults, rng_mode)
        run = MessageFleetSimulator(graph, max_rounds=max_rounds).run_fleet(
            rule, seeds, validate=validate
        )
        # Message algorithms do not beep.
        mean_beeps = np.zeros(trials, dtype=np.float64)
    elif isinstance(rule, ApplicationRule):
        check_application_run(rule, faults, rng_mode)
        run = ApplicationFleetSimulator(
            graph, rule, max_rounds=max_rounds
        ).run_fleet(seeds, validate=validate)
        # Beeps per *host* vertex (line-graph vertices for matching);
        # rounds sum the beeping rounds over every MIS layer.
        mean_beeps = run.mean_beeps
    else:
        run = FleetSimulator(
            graph, max_rounds=max_rounds, backend=backend
        ).run_fleet(
            rule, seeds, validate=validate, faults=faults, rng_mode=rng_mode
        )
        mean_beeps = run.mean_beeps
    return BatchResult(
        rule_name=rule.name,
        num_vertices=graph.num_vertices,
        trials=trials,
        rounds=run.rounds,
        mean_beeps=mean_beeps,
    )
