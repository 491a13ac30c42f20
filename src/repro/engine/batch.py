"""Multi-trial batches and the one entry into the lockstep engines.

This is what the figure benchmarks call: for one graph (or one graph
generator) run ``trials`` independent simulations and return the round and
beep statistics as arrays.  Seeds are derived with the same splitmix
discipline as the reference engine, so a batch is reproducible from its
master seed alone.

Both batch runners — :func:`run_batch` here and
:func:`repro.experiments.runner.run_fleet_trials` — reach the engines
through :func:`run_rule_armada`: one armada of the rule's fabric over
same-width graphs, each graph's trials advancing in lockstep as rows of
one ``(slots, n)`` tensor.  The fabric follows the rule's type:

- a :class:`~repro.engine.rules.ProbabilityRule` (the beeping rules)
  runs on :class:`~repro.engine.fleet.ArmadaSimulator`, in either
  ``rng_mode`` (``"stream"``, the golden-trace-pinned default of
  :func:`run_batch`, or the stateless ``"counter"`` discipline — see
  :mod:`repro.beeping.rng`) and under any ``faults`` model (beep loss,
  spurious beeps, crashes, churn — see :mod:`repro.beeping.faults`); the
  rule must be ``trial_parallel``;
- a :class:`~repro.engine.messages.MessageRule` (the Luby variants,
  Métivier, local-minimum-id) runs on
  :class:`~repro.engine.messages.MessageArmadaSimulator`;
- an :class:`~repro.engine.applications.ApplicationRule` (MIS-peeling
  colouring, matching, dominating and ruling sets) runs on
  :class:`~repro.engine.applications.ApplicationArmadaSimulator`;
  ``rounds`` counts beeping rounds summed over all MIS layers.

Message and application rules run the counter fabric only and reject
fault models; :func:`check_fleet_run` is the one place that rule lives,
and every entry point — both runners, :class:`~repro.sweep.spec.CellSpec`
and ``repro compare`` — asks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.beeping.rng import derive_seed_block
from repro.engine.applications import (
    ApplicationArmadaSimulator,
    ApplicationRule,
)
from repro.engine.fleet import ArmadaSimulator
from repro.engine.messages import MessageArmadaSimulator, MessageRule
from repro.engine.rules import ProbabilityRule
from repro.engine.simulator import DEFAULT_MAX_ROUNDS, check_rng_mode
from repro.graphs.graph import Graph


def check_fleet_run(rule, faults: FaultModel, rng_mode: str) -> None:
    """Raise ``ValueError`` unless the engines can run ``rule`` so.

    Probability rules take either rng mode and any fault model.  Message
    and application rules run the counter fabric only and reject fault
    models: the per-node references they mirror ignore faults, so a
    silently dropped model would misreport robustness results.
    """
    check_rng_mode(rng_mode)
    if isinstance(rule, MessageRule):
        kind = "message"
    elif isinstance(rule, ApplicationRule):
        kind = "application"
    else:
        return
    if rng_mode != "counter":
        raise ValueError(
            f"{kind} rule {rule.name!r} runs the counter fabric only; "
            "pass rng_mode='counter'"
        )
    if not faults.is_fault_free:
        raise ValueError(
            f"{kind} rule {rule.name!r} does not support fault injection"
        )


def run_rule_armada(
    rule,
    graphs: Sequence[Graph],
    seed_rows: Sequence[Sequence[int]],
    validate: bool = False,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    faults: FaultModel = NO_FAULTS,
    rng_mode: str = "counter",
    backend: str = "auto",
) -> Tuple[List, List[Graph]]:
    """One armada of ``rule``'s fabric over same-width ``graphs``.

    ``seed_rows[g]`` holds graph ``g``'s trial seeds.  Returns one run
    per graph and, per graph, the graph the run beeped on: the host
    graph of an application rule, the universe graph under churn, else
    the graph itself.
    """
    check_fleet_run(rule, faults, rng_mode)
    if isinstance(rule, MessageRule):
        armada = MessageArmadaSimulator(graphs, max_rounds, backend)
        return armada.run_armada(rule, seed_rows, validate), list(graphs)
    if isinstance(rule, ApplicationRule):
        armada = ApplicationArmadaSimulator(graphs, rule, max_rounds, backend)
        return armada.run_armada(seed_rows, validate), list(armada.hosts)
    runs = ArmadaSimulator(graphs, max_rounds, backend).run_armada(
        rule, seed_rows, validate, faults, rng_mode
    )
    churn = faults.churn_schedule
    if churn.is_empty():
        return runs, list(graphs)
    return runs, [churn.universe_graph(graph) for graph in graphs]


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


def run_batch(
    graph: Graph,
    rule_factory: Callable[[], ProbabilityRule],
    trials: int,
    master_seed: int,
    validate: bool = False,
    faults: FaultModel = NO_FAULTS,
    rng_mode: str = "stream",
    backend: str = "auto",
) -> BatchResult:
    """Run ``trials`` independent simulations of one rule on one graph.

    ``rule_factory`` is called once; the one instance drives every
    trial, so the rule must be ``trial_parallel``; trial ``t`` runs
    on seed ``derive_seed(master_seed, 0, t)``.  ``backend`` selects every
    engine's neighbour-reduction kernel (``"auto"``, ``"dense"`` or
    ``"sparse"``; :func:`~repro.engine.sparse.resolve_backend`) — pure
    execution strategy, bit-identical results.  ``rng_mode`` *does*
    affect results: the two disciplines draw different uniforms.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rule = rule_factory()
    seeds = derive_seed_block(master_seed, 0, count=trials)
    (run,), _ = run_rule_armada(
        rule, [graph], [seeds], validate, DEFAULT_MAX_ROUNDS, faults,
        rng_mode, backend,
    )
    return BatchResult(
        rule_name=rule.name,
        num_vertices=graph.num_vertices,
        trials=trials,
        rounds=run.rounds,
        # Message algorithms do not beep; application beeps are per host
        # vertex (line-graph vertices for matching).
        mean_beeps=(
            np.zeros(trials)
            if isinstance(rule, MessageRule)
            else run.mean_beeps
        ),
    )
