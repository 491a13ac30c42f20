"""Generic seeded trial execution.

Two runners share the :class:`TrialOutcome` record:

- :func:`run_trials` drives the per-node *reference* engine — what any
  experiment needing traces or non-uniform node policies uses.
- :func:`run_fleet_trials` drives the trial-parallel fleet engine: trials
  are grouped per graph, and in the default ``"counter"`` rng mode every
  same-size group runs inside **one** block-diagonal
  :class:`~repro.engine.fleet.ArmadaSimulator` batch (in ``"stream"``
  mode, or when the graphs' vertex counts differ, one
  :class:`~repro.engine.fleet.FleetSimulator` batch per graph — the
  one-graph armada, so both paths run the same lockstep loop).

Both accept a :class:`~repro.beeping.faults.FaultModel` — robustness
sweeps run on the fleet engine too (vectorised beep loss, spurious beeps
and crash schedules; see ``docs/robustness.md``); the reference runner is
the slower, instrumented alternative and agrees with it in law.

Both accept a ``trial_range=(lo, hi)`` window: only global trials
``lo .. hi-1`` are executed, with exactly the seeds they would consume in
the full run.  Concatenating the outcomes of a partition of ``[0, trials)``
therefore reproduces the unsharded run bit for bit — this is the contract
the sweep orchestrator (:mod:`repro.sweep`) shards on.

Graph ``g`` of a fleet run depends only on the graph factory and the
``(g, 0)`` path of ``master_seed`` — not on the trial window, the rule or
the trial count.  When the factory is a :class:`KeyedGraphFactory` (every
sweep cell's is), :func:`run_fleet_trials` therefore draws each graph
once per process: a memo holds the graphs of the most recent ``(key,
master_seed)``, by graph index, so every shard of a cell and every cell
sharing that fingerprint (both algorithms of one ``repro sweep`` size)
reuse the same :class:`~repro.graphs.graph.Graph` objects.  The
reference runner draws a fresh graph per trial, as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import MISAlgorithm, MISRun
from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.beeping.rng import RngStream
from repro.graphs.graph import Graph
from repro.telemetry import probes

GraphFactory = Callable[[Random], Graph]
AlgorithmFactory = Callable[[], MISAlgorithm]


@dataclass(frozen=True)
class KeyedGraphFactory:
    """A graph factory whose graph is fixed by ``key`` and its rng.

    ``key`` names everything besides the rng that decides the graph (a
    sweep cell's family and its parameters), which lets
    :func:`run_fleet_trials` reuse graphs it has already drawn.
    """

    key: Hashable
    build: GraphFactory

    def __call__(self, rng: Random) -> Graph:
        return self.build(rng)


class _GraphMemo:
    """The graphs of one ``(factory key, master_seed)``, by graph index.

    A new fingerprint evicts the old one's graphs, so the memo never
    holds more than one cell's ``graphs`` — what an unsharded fleet run
    holds anyway.
    """

    def __init__(self) -> None:
        self._fingerprint: Optional[Hashable] = None
        self._graphs: Dict[int, Graph] = {}

    def clear(self) -> None:
        self._fingerprint = None
        self._graphs = {}

    def draw(
        self,
        graph_factory: GraphFactory,
        stream: RngStream,
        fingerprint: Hashable,
        indices: Sequence[int],
    ) -> List[Graph]:
        """Graph ``g`` (drawn on path ``(g, 0)``) for every ``g`` in
        ``indices``, drawing only those this fingerprint lacks."""
        if fingerprint != self._fingerprint:
            self.clear()
            self._fingerprint = fingerprint
        drawn = []
        for graph_index in indices:
            graph = self._graphs.get(graph_index)
            if graph is None:
                probes.count("graphs.drawn")
                graph = graph_factory(stream.child(graph_index, 0))
                self._graphs[graph_index] = graph
            else:
                probes.count("graphs.reused")
            drawn.append(graph)
        return drawn


#: The per-process graph memo of :func:`run_fleet_trials`.
_FLEET_GRAPHS = _GraphMemo()


@dataclass(frozen=True)
class TrialOutcome:
    """The metrics of one trial (the full MISRun is dropped to save memory).

    ``repair_rounds`` and ``recovered`` are churn self-repair metrics
    (``docs/robustness.md``); the defaults make fault-free and
    crash-only rows — including every row cached before the churn axis
    existed — identical to their pre-churn form.
    """

    trial: int
    rounds: int
    mis_size: int
    mean_beeps_per_node: float
    messages: int
    bits: int
    repair_rounds: Tuple[int, ...] = ()
    recovered: bool = True


def _resolve_trial_range(
    trials: int, trial_range: Optional[Tuple[int, int]]
) -> Tuple[int, int]:
    """Validate and default a ``(lo, hi)`` window over ``[0, trials)``."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trial_range is None:
        return 0, trials
    lo, hi = trial_range
    if not 0 <= lo < hi <= trials:
        raise ValueError(
            f"trial_range must satisfy 0 <= lo < hi <= {trials}, "
            f"got ({lo}, {hi})"
        )
    return lo, hi


def run_trials(
    algorithm_factory: AlgorithmFactory,
    graph_factory: GraphFactory,
    trials: int,
    master_seed: int,
    faults: FaultModel = NO_FAULTS,
    validate: bool = True,
    max_rounds: int = 100_000,
    trial_range: Optional[Tuple[int, int]] = None,
) -> List[TrialOutcome]:
    """Run ``trials`` independent (graph, algorithm) trials.

    Each trial draws a fresh graph and a fresh algorithm instance with
    independently derived seeds, so trials are exchangeable and the whole
    batch is reproducible from ``master_seed``.  ``trial_range`` restricts
    execution to global trials ``lo .. hi-1`` without changing any seed.
    """
    lo, hi = _resolve_trial_range(trials, trial_range)
    stream = RngStream(master_seed)
    outcomes: List[TrialOutcome] = []
    for trial in range(lo, hi):
        graph = graph_factory(stream.child(trial, 0))
        algorithm = algorithm_factory()
        run = algorithm.run(
            graph,
            stream.child(trial, 1),
            faults=faults,
            max_rounds=max_rounds,
        )
        if validate:
            run.verify()
        outcomes.append(
            TrialOutcome(
                trial=trial,
                rounds=run.rounds,
                mis_size=run.mis_size,
                mean_beeps_per_node=run.mean_beeps_per_node,
                messages=run.messages,
                bits=run.bits,
                repair_rounds=tuple(run.repair_rounds),
                recovered=run.recovered,
            )
        )
    return outcomes


def _emit_message_outcomes(
    outcomes: List[TrialOutcome],
    run: "object",
    group_lo: int,
) -> None:
    """Append one group's rows from a MessageFleetRun.

    Message algorithms do not beep; ``messages``/``bits`` carry the
    per-node references' value-exchange accounting.
    """
    for t in range(run.trials):
        outcomes.append(
            TrialOutcome(
                trial=group_lo + t,
                rounds=int(run.rounds[t]),
                mis_size=int(run.membership[t].sum()),
                mean_beeps_per_node=0.0,
                messages=int(run.messages[t]),
                bits=int(run.bits[t]),
            )
        )


def _emit_fleet_outcomes(
    outcomes: List[TrialOutcome],
    run: "object",
    graph: Graph,
    group_lo: int,
) -> None:
    """Append one group's :class:`TrialOutcome` rows from a FleetRun.

    Beep accounting mirrors the reference engine's: a beep is one 1-bit
    message per incident channel.  ``graph`` must match the run's width
    — the universe graph for churn runs.
    """
    degrees = np.diff(graph.indptr).astype(np.int64)
    for t in range(run.trials):
        channel_bits = int((run.beeps_by_node[t] * degrees).sum())
        outcomes.append(
            TrialOutcome(
                trial=group_lo + t,
                rounds=int(run.rounds[t]),
                mis_size=int(run.membership[t].sum()),
                mean_beeps_per_node=float(run.mean_beeps[t]),
                messages=channel_bits,
                bits=channel_bits,
                repair_rounds=(
                    tuple(int(r) for r in run.repair_rounds[t])
                    if run.repair_rounds is not None
                    else ()
                ),
                recovered=run.trial_recovered(t),
            )
        )


def _emit_application_outcomes(
    outcomes: List[TrialOutcome],
    run: "object",
    rule: "object",
    host: Graph,
    group_lo: int,
) -> None:
    """Append one group's rows from an ApplicationFleetRun.

    ``mis_size`` carries the application's output size (colour count for
    peeling, matched edges / chosen vertices otherwise); beep and channel
    accounting lives on the *host* graph the MIS layers beeped on.
    """
    degrees = np.diff(host.indptr).astype(np.int64)
    for t in range(run.trials):
        channel_bits = int((run.beeps_by_node[t] * degrees).sum())
        outcomes.append(
            TrialOutcome(
                trial=group_lo + t,
                rounds=int(run.rounds[t]),
                mis_size=int(rule.output_size(run, t)),
                mean_beeps_per_node=float(run.mean_beeps[t]),
                messages=channel_bits,
                bits=channel_bits,
            )
        )


def run_fleet_trials(
    rule_factory: "Callable[[], object]",
    graph_factory: GraphFactory,
    trials: int,
    master_seed: int,
    graphs: int = 1,
    validate: bool = True,
    max_rounds: int = 100_000,
    trial_range: Optional[Tuple[int, int]] = None,
    faults: FaultModel = NO_FAULTS,
    rng_mode: str = "counter",
    backend: str = "auto",
) -> List[TrialOutcome]:
    """Run ``trials`` trials on the trial-parallel fleet engine.

    The trials are spread over ``graphs`` independently drawn graphs (the
    fleet engine batches trials *per graph*).  The graph for group ``g``
    is drawn on path ``(g, 0)`` and its trial seeds on the disjoint path
    ``(g, 1, trial)``, so graph topology and simulation randomness are
    independent, and outcomes are reproducible and identical to a
    seed-by-seed loop over the same seeds in the same ``rng_mode``.
    A :class:`KeyedGraphFactory` draws each graph once per process (see
    the module docs); any other factory is called once per graph.
    ``faults`` injects the vectorised fault model into every trial (a
    fault-free model changes nothing, including the random streams).

    ``rng_mode`` defaults to ``"counter"`` — the sweep/figure hot path —
    where all same-``n`` groups execute as **one** block-diagonal
    :class:`~repro.engine.fleet.ArmadaSimulator` batch: a single lockstep
    round-loop per call instead of one per graph.  ``"stream"`` runs one
    :class:`~repro.engine.fleet.FleetSimulator` (the one-graph armada)
    per graph and keeps the golden-trace-pinned byte streams.  Either
    way, group ``g`` / trial ``t`` is bit-identical to the corresponding
    lone one-seed fleet run in that mode.

    ``backend`` picks the neighbour-reduction kernel (``"auto"``,
    ``"dense"`` or ``"sparse"``) of whichever engine runs the rule, on
    both the armada and the per-graph fleet path — pure execution
    strategy, bit-identical rows either way.

    ``trial_range=(lo, hi)`` executes only the global trials ``lo .. hi-1``.
    The graph grouping is always computed from the *full* ``(trials,
    graphs)`` pair and seeds come from each group's own offset window, so a
    window's outcomes equal the corresponding slice of the full run.

    ``rule_factory`` may also produce a
    :class:`~repro.engine.messages.MessageRule` (the Luby variants,
    Métivier, local-minimum-id): the same seed paths then drive the
    message-passing lockstep engines —
    :class:`~repro.engine.messages.MessageArmadaSimulator` for same-``n``
    windows, per-graph :class:`~repro.engine.messages.MessageFleetSimulator`
    otherwise — and rows carry the references' message/bit accounting.
    Message rules are counter-only and reject fault models.

    It may equally produce an
    :class:`~repro.engine.applications.ApplicationRule` (MIS-peeling
    colouring, matching, dominating and ruling sets): the same seed paths
    then drive the application lockstep engines —
    :class:`~repro.engine.applications.ApplicationArmadaSimulator` when
    every group's *host* graph has the same vertex count (edge count for
    matching), per-graph
    :class:`~repro.engine.applications.ApplicationFleetSimulator`
    otherwise.  Rows then report the application's output size (colour
    count, matched edges, chosen vertices) as ``mis_size``, beeping
    rounds summed over all MIS layers as ``rounds``, and beep/channel
    accounting on the host graph.  Application rules are counter-only
    and reject fault models, like the message rules.
    """
    from repro.beeping.rng import derive_seed_block
    from repro.engine.applications import (
        ApplicationArmadaSimulator,
        ApplicationFleetSimulator,
        ApplicationRule,
        check_application_run,
    )
    from repro.engine.fleet import ArmadaSimulator, FleetSimulator
    from repro.engine.messages import (
        MessageArmadaSimulator,
        MessageFleetSimulator,
        MessageRule,
        check_message_run,
    )
    from repro.engine.simulator import check_rng_mode

    check_rng_mode(rng_mode)
    if graphs < 1:
        raise ValueError(f"graphs must be >= 1, got {graphs}")
    rule = rule_factory()
    message = isinstance(rule, MessageRule)
    if message:
        check_message_run(rule, faults, rng_mode)
    application = isinstance(rule, ApplicationRule)
    if application:
        check_application_run(rule, faults, rng_mode)
    lo, hi = _resolve_trial_range(trials, trial_range)
    stream = RngStream(master_seed)
    per_graph = [trials // graphs] * graphs
    for extra in range(trials % graphs):
        per_graph[extra] += 1
    selected: List[Tuple[int, int, int]] = []  # (graph_index, lo, hi)
    group_start = 0
    for graph_index, group_trials in enumerate(per_graph):
        group_lo = max(lo, group_start)
        group_hi = min(hi, group_start + group_trials)
        if group_lo < group_hi:
            selected.append((graph_index, group_lo, group_hi))
        group_start += group_trials
    group_starts = np.concatenate(([0], np.cumsum(per_graph)))

    def group_seeds(graph_index: int, group_lo: int, group_hi: int):
        return derive_seed_block(
            master_seed,
            graph_index,
            1,
            count=group_hi - group_lo,
            start=group_lo - int(group_starts[graph_index]),
        )

    outcomes: List[TrialOutcome] = []
    indices = [graph_index for graph_index, _, _ in selected]
    if isinstance(graph_factory, KeyedGraphFactory):
        drawn = _FLEET_GRAPHS.draw(
            graph_factory, stream, (graph_factory.key, master_seed), indices
        )
    else:
        drawn = [graph_factory(stream.child(g, 0)) for g in indices]
    same_n = len({graph.num_vertices for graph in drawn}) == 1
    if message:
        # The message-passing fabric is counter-only (checked above), so
        # same-n windows always take the one-batch armada path.
        if same_n and drawn:
            armada = MessageArmadaSimulator(
                drawn, max_rounds=max_rounds, backend=backend
            )
            runs = armada.run_armada(
                rule,
                [group_seeds(*group) for group in selected],
                validate=validate,
            )
            for (graph_index, group_lo, group_hi), run in zip(selected, runs):
                _emit_message_outcomes(outcomes, run, group_lo)
            return outcomes
        for (graph_index, group_lo, group_hi), graph in zip(selected, drawn):
            run = MessageFleetSimulator(
                graph, max_rounds=max_rounds, backend=backend
            ).run_fleet(
                rule,
                group_seeds(graph_index, group_lo, group_hi),
                validate=validate,
            )
            _emit_message_outcomes(outcomes, run, group_lo)
        return outcomes
    if application:
        # Armada eligibility depends on the *host* sizes (e.g. the line
        # graph's vertex count for matching), checked cheaply via
        # host_size before any host graph is built.
        same_host = len({rule.host_size(graph) for graph in drawn}) == 1
        if same_host and drawn:
            armada = ApplicationArmadaSimulator(
                drawn, rule, max_rounds=max_rounds, backend=backend
            )
            runs = armada.run_armada(
                [group_seeds(*group) for group in selected],
                validate=validate,
            )
            for (graph_index, group_lo, group_hi), host, run in zip(
                selected, armada.hosts, runs
            ):
                _emit_application_outcomes(
                    outcomes, run, rule, host, group_lo
                )
            return outcomes
        for (graph_index, group_lo, group_hi), graph in zip(selected, drawn):
            simulator = ApplicationFleetSimulator(
                graph, rule, max_rounds=max_rounds, backend=backend
            )
            run = simulator.run_fleet(
                group_seeds(graph_index, group_lo, group_hi),
                validate=validate,
            )
            _emit_application_outcomes(
                outcomes, run, rule, simulator.host, group_lo
            )
        return outcomes
    # Beep/channel accounting must match the run's width: under churn
    # the engines run (and report) on the universe graph.
    if faults.churn_schedule.is_empty():
        emit_graphs = drawn
    else:
        emit_graphs = [
            faults.churn_schedule.universe_graph(graph) for graph in drawn
        ]
    if rng_mode == "counter" and len(drawn) >= 1 and same_n:
        # The armada path: every group of the window in one batch.
        armada = ArmadaSimulator(drawn, max_rounds=max_rounds, backend=backend)
        runs = armada.run_armada(
            rule_factory(),
            [group_seeds(*group) for group in selected],
            validate=validate,
            faults=faults,
        )
        for (graph_index, group_lo, group_hi), graph, run in zip(
            selected, emit_graphs, runs
        ):
            _emit_fleet_outcomes(outcomes, run, graph, group_lo)
        return outcomes
    # Stream mode (or counter with heterogeneous vertex counts, which the
    # block-diagonal stack cannot express): one fleet batch per graph.
    for (graph_index, group_lo, group_hi), graph, emit_graph in zip(
        selected, drawn, emit_graphs
    ):
        simulator = FleetSimulator(graph, max_rounds=max_rounds, backend=backend)
        run = simulator.run_fleet(
            rule_factory(),
            group_seeds(graph_index, group_lo, group_hi),
            validate=validate,
            faults=faults,
            rng_mode=rng_mode,
        )
        _emit_fleet_outcomes(outcomes, run, emit_graph, group_lo)
    return outcomes
