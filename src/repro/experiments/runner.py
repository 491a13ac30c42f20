"""Generic seeded trial execution.

Two runners share the :class:`TrialOutcome` record:

- :func:`run_trials` drives the per-node *reference* engine — what any
  experiment needing traces or non-uniform node policies uses.
- :func:`run_fleet_trials` drives the trial-parallel fleet engines:
  trials are grouped per graph, and every group of one width runs inside
  **one** block-diagonal armada of the rule's fabric, in either rng mode
  (one width — one armada — in every sweep cell whose graphs share a
  vertex count).

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
from repro.beeping.metrics import beep_channel_bits
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
    max_rounds: int = 100_000,
    trial_range: Optional[Tuple[int, int]] = None,
) -> List[TrialOutcome]:
    """Run ``trials`` independent (graph, algorithm) trials, each verified.

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


def _group_outcomes(
    rule: "object", run: "object", host: Graph, group_lo: int
) -> List[TrialOutcome]:
    """One graph's rows, in trial order, from any fabric's run.

    ``host`` is the graph the run beeped on (the universe graph under
    churn, the host graph of an application rule); its beeps are
    counted by the reference engine's rule,
    :func:`~repro.beeping.metrics.beep_channel_bits`.  Message algorithms do
    not beep; their ``messages``/``bits`` carry the per-node references'
    value-exchange accounting.  An application's ``mis_size`` is its
    output size (colour count for peeling, matched edges / chosen
    vertices otherwise).
    """
    from repro.engine.applications import ApplicationRule
    from repro.engine.messages import MessageRule

    if isinstance(rule, MessageRule):
        mean_beeps = np.zeros(run.trials)
        messages, bits = run.messages, run.bits
    else:
        mean_beeps = run.mean_beeps
        messages = bits = beep_channel_bits(host, run.beeps_by_node)
    if isinstance(rule, ApplicationRule):
        sizes = [rule.output_size(run, t) for t in range(run.trials)]
    else:
        sizes = run.membership.sum(axis=1)
    # Churn self-repair metrics exist on churned beeping runs only.
    repair_rounds = getattr(run, "repair_rounds", None)
    recovered = getattr(run, "recovered", None)
    return [
        TrialOutcome(
            trial=group_lo + t,
            rounds=int(run.rounds[t]),
            mis_size=int(sizes[t]),
            mean_beeps_per_node=float(mean_beeps[t]),
            messages=int(messages[t]),
            bits=int(bits[t]),
            repair_rounds=(
                ()
                if repair_rounds is None
                else tuple(int(r) for r in repair_rounds[t])
            ),
            recovered=True if recovered is None else bool(recovered[t]),
        )
        for t in range(run.trials)
    ]


def run_fleet_trials(
    rule_factory: "Callable[[], object]",
    graph_factory: GraphFactory,
    trials: int,
    master_seed: int,
    graphs: int = 1,
    max_rounds: int = 100_000,
    trial_range: Optional[Tuple[int, int]] = None,
    faults: FaultModel = NO_FAULTS,
    rng_mode: str = "counter",
    backend: str = "auto",
) -> List[TrialOutcome]:
    """Run ``trials`` trials on the trial-parallel fleet engines, each
    verified as an MIS (of the surviving subgraph under faults).

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

    One path serves every cell: the window's graphs are grouped by
    *width* — the vertex count, or for an application rule the vertex
    count of its host graph (``rule.host_size``) — and each width runs
    as **one** block-diagonal armada of the rule's fabric
    (:func:`~repro.engine.batch.run_rule_armada`), in either
    ``rng_mode``.  Group ``g`` / trial ``t`` is bit-identical to the
    corresponding lone one-seed fleet run in that mode, whatever it was
    stacked with.  ``rng_mode`` defaults to ``"counter"`` — the
    sweep/figure hot path, which finishes on the armada's entry-level
    frontier tail; ``"stream"`` keeps the golden-trace-pinned byte
    streams.

    ``backend`` picks the neighbour-reduction kernel (``"auto"``,
    ``"dense"`` or ``"sparse"``) — pure execution strategy, bit-identical
    rows either way.

    ``trial_range=(lo, hi)`` executes only the global trials ``lo .. hi-1``.
    The graph grouping is always computed from the *full* ``(trials,
    graphs)`` pair and seeds come from each group's own offset window, so a
    window's outcomes equal the corresponding slice of the full run.

    ``rule_factory`` may produce a probability rule, a
    :class:`~repro.engine.messages.MessageRule` (the Luby variants,
    Métivier, local-minimum-id; rows carry the references'
    message/bit accounting) or an
    :class:`~repro.engine.applications.ApplicationRule` (MIS-peeling
    colouring, matching, dominating and ruling sets; rows report the
    application's output size as ``mis_size``, beeping rounds summed over
    all MIS layers as ``rounds``, and beep/channel accounting on the
    host graph).  Message and application rules are counter-only and
    reject fault models (:func:`~repro.engine.batch.check_fleet_run`).
    """
    from repro.beeping.rng import derive_seed_block
    from repro.engine.applications import ApplicationRule
    from repro.engine.batch import check_fleet_run, run_rule_armada

    if graphs < 1:
        raise ValueError(f"graphs must be >= 1, got {graphs}")
    rule = rule_factory()
    check_fleet_run(rule, faults, rng_mode)
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

    indices = [graph_index for graph_index, _, _ in selected]
    if isinstance(graph_factory, KeyedGraphFactory):
        drawn = _FLEET_GRAPHS.draw(
            graph_factory, stream, (graph_factory.key, master_seed), indices
        )
    else:
        drawn = [graph_factory(stream.child(g, 0)) for g in indices]
    # One armada per width (the block-diagonal stack needs equal widths);
    # the host size is known before any host graph is built.
    width = (
        rule.host_size
        if isinstance(rule, ApplicationRule)
        else lambda graph: graph.num_vertices
    )
    batches: Dict[int, List[int]] = {}
    for position, graph in enumerate(drawn):
        batches.setdefault(width(graph), []).append(position)
    by_group: List[List[TrialOutcome]] = [[] for _ in selected]
    for positions in batches.values():
        runs, hosts = run_rule_armada(
            rule,
            [drawn[p] for p in positions],
            [group_seeds(*selected[p]) for p in positions],
            max_rounds,
            faults,
            rng_mode,
            backend,
        )
        for position, run, host in zip(positions, runs, hosts):
            by_group[position] = _group_outcomes(
                rule, run, host, selected[position][1]
            )
    return [outcome for group in by_group for outcome in group]
