"""Application kernels: the MIS reductions on the fleet fabric.

The paper's conclusion sells MIS as a building block: colouring, maximal
matching, dominating sets and ruling sets all reduce to it.  The per-node
reductions in :mod:`repro.applications` realise those reductions one
Python set operation at a time; this module lifts the whole family onto
the armada's lockstep round loop
(:meth:`~repro.engine.fleet.ArmadaSimulator._lockstep`).  An
:class:`ApplicationRule` describes one reduction — which *host graph*
the inner MIS runs on and whether layers are peeled — and a shared layer
loop advances a whole ``(slots, n)`` batch of complete reductions at
once, each layer one armada run over the host graphs:

- :class:`ColoringRule` — iterated MIS peeling; every layer is one
  lockstep feedback-MIS pass over the still-uncoloured lanes of every
  trial simultaneously.
- :class:`MatchingRule` — one MIS on the line graph ``L(G)``, which is
  built with array primitives (lexsorted incidence lists, no per-vertex
  Python loops) and equals :func:`repro.applications.matching.line_graph`
  exactly.
- :class:`DominatingSetRule` — one MIS of ``G`` (every MIS dominates).
- :class:`RulingSetRule` — one MIS on the (α−1)-th graph power, computed
  by repeated boolean GEMM instead of per-source BFS, giving an
  (α, α−1)-ruling set.

Randomness and the conformance lock
-----------------------------------
All draws come from the counter fabric.  Layer ``L`` of trial seed ``s``
runs the inner feedback MIS on the derived seed
``counter_state(s, L, DRAW_LAYER)`` — its own disjoint domain, so layers
are mutually independent and single-layer reductions consume exactly the
layer-0 seed.  Within a layer, the still-remaining lanes of each trial
are *rank-compacted*: remaining vertex ``v`` draws the uniform of lane
``rank(v)`` (its index in the induced subgraph the per-node reduction
would build), via :func:`repro.beeping.rng.counter_uniforms_at`.  Since
``mis_coloring`` peels induced subgraphs in ascending vertex order, the
lane mapping matches the reference relabelling exactly, and each layer's
armada run equals the counter-mode
:class:`~repro.engine.fleet.FleetSimulator` run on the induced subgraph.
Consequence: feeding the
*unchanged* per-node reductions an :class:`EngineMIS` adapter (which runs
each ``algorithm.run`` call as a one-trial counter fleet on the matching
layer seed) reproduces the kernels' colourings, matchings and chosen sets
**bit for bit** — the conformance wall ``tests/engine/test_applications.py``
enforces, alongside the dense/sparse, batch/per-trial and fleet/armada
bit-equality contracts of the other engines.

The inner MIS is always the paper's feedback rule
(:class:`~repro.engine.rules.FeedbackRule`), matching the per-node
reductions' :class:`~repro.algorithms.feedback.FeedbackMIS` default.

Accounting: ``beeps_by_node`` counts every beep of every layer on the
host graph (for matching that is the line graph — the radio links); a
beep is one 1-bit message per incident host channel, mirroring the
beeping engines.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.algorithms.base import MISAlgorithm, MISRun
from repro.applications.coloring import verify_coloring
from repro.applications.dominating import verify_dominating_set
from repro.applications.matching import verify_maximal_matching
from repro.applications.ruling_sets import verify_ruling_set
from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.beeping.rng import DRAW_LAYER, counter_state
from repro.beeping.metrics import beep_channel_bits
from repro.engine.fleet import ArmadaSimulator, FleetSimulator
from repro.engine.rules import FeedbackRule
from repro.engine.simulator import DEFAULT_MAX_ROUNDS, seed_groups
from repro.engine.sparse import build_csr, csr_to_dense
from repro.graphs.graph import Graph
from repro.graphs.validation import verify_mis
from repro.telemetry import probes


def line_graph_arrays(
    graph: Graph,
) -> Tuple[Graph, np.ndarray, np.ndarray]:
    """The line graph ``L(G)`` built with array primitives.

    Returns ``(line_graph, edge_u, edge_v)`` where line-graph vertex
    ``i`` is the edge ``(edge_u[i], edge_v[i])`` of ``G`` — the same
    canonical ``u < v`` lexicographic order :meth:`Graph.edges` yields,
    so the indexing agrees with
    :func:`repro.applications.matching.line_graph` (and the two produce
    equal graphs; the conformance suite pins it).

    Construction: the incidence list ``(vertex, edge)`` is lexsorted by
    vertex; within each vertex's group, every pair of incident edges is
    one line-graph edge, enumerated by repeating each group element once
    per earlier element — no per-vertex Python loop.
    """
    columns, starts, _ = build_csr(graph)
    n = graph.num_vertices
    degrees = np.diff(np.append(starts, columns.size))
    rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
    once = rows < columns
    edge_u = rows[once]
    edge_v = columns[once].astype(np.int64)
    m = int(edge_u.size)
    if m == 0:
        return Graph(0), edge_u, edge_v
    endpoint_vertex = np.concatenate([edge_u, edge_v])
    endpoint_edge = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
    order = np.lexsort((endpoint_edge, endpoint_vertex))
    grouped_vertex = endpoint_vertex[order]
    grouped_edge = endpoint_edge[order]
    first = np.empty(grouped_vertex.size, dtype=bool)
    first[0] = True
    np.not_equal(grouped_vertex[1:], grouped_vertex[:-1], out=first[1:])
    indices = np.arange(grouped_vertex.size, dtype=np.int64)
    group_start = np.maximum.accumulate(np.where(first, indices, 0))
    position = indices - group_start
    total = int(position.sum())
    # Element at position t of its group pairs with the t earlier group
    # members; grouped_edge is ascending within a group (the lexsort's
    # secondary key), so pairs come out canonical (lo < hi).
    pair_hi = np.repeat(grouped_edge, position)
    base = np.repeat(group_start, position)
    offset = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(position) - position, position
    )
    pair_lo = grouped_edge[base + offset]
    line = Graph(m, zip(pair_lo.tolist(), pair_hi.tolist()))
    return line, edge_u, edge_v


def graph_power_matrix(graph: Graph, k: int) -> Graph:
    """The k-th graph power via repeated boolean GEMM.

    Vectorised replacement for the per-source BFS of
    :func:`repro.applications.ruling_sets.graph_power` (equal results;
    the conformance suite pins it): ``reach`` starts as the adjacency
    and absorbs one extra hop per float32 matmul, so after ``k - 1``
    products it holds exactly the distance-``<= k`` pairs.  Quadratic
    memory, like the dense engines — fine at simulated sizes.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = graph.num_vertices
    columns, starts, _ = build_csr(graph)
    adjacency = csr_to_dense(columns, starts, np.zeros((n, n), dtype=bool))
    reach = adjacency.copy()
    step = adjacency.astype(np.float32)
    for _ in range(k - 1):
        reach |= (reach.astype(np.float32) @ step) > 0.0
    np.fill_diagonal(reach, False)
    upper_u, upper_v = np.nonzero(np.triu(reach, 1))
    return Graph(n, zip(upper_u.tolist(), upper_v.tolist()))


class ApplicationRule(ABC):
    """One MIS application as a reduction the lockstep driver can run.

    A rule is pure topology policy — it never touches the round loop.  It
    names the *host graph* the inner feedback MIS beeps on (identity for
    colouring and dominating sets, ``L(G)`` for matching, the graph power
    for ruling sets), says whether the driver peels layers
    (:attr:`peel`), verifies one trial's output against the
    applications-layer invariants, and sizes the output for accounting.
    """

    #: Application kernels always batch (counter draws are stateless).
    trial_parallel = True

    #: True for iterated-MIS reductions (colouring): after each layer the
    #: driver restricts to the still-unselected lanes and runs another.
    peel = False

    @property
    @abstractmethod
    def name(self) -> str:
        """Stable identifier (the sweep/compare ``algorithm`` value)."""

    def host(self, graph: Graph) -> Graph:
        """The graph the inner MIS actually runs on (default: ``graph``)."""
        return graph

    def host_size(self, graph: Graph) -> int:
        """``host(graph).num_vertices`` without building the host.

        Lets dispatchers decide armada eligibility (equal host sizes)
        before paying for host construction.
        """
        return graph.num_vertices

    @abstractmethod
    def verify(
        self, graph: Graph, host: Graph, run: "ApplicationFleetRun",
        trial: int,
    ) -> None:
        """Assert one trial's output satisfies the application invariants."""

    @abstractmethod
    def output_size(self, run: "ApplicationFleetRun", trial: int) -> int:
        """The application's headline size (colours, matched edges, ...)."""


class ColoringRule(ApplicationRule):
    """(Δ+1)-colouring by iterated MIS peeling, all trials in lockstep."""

    peel = True

    @property
    def name(self) -> str:
        return "mis-coloring"

    def verify(self, graph, host, run, trial):
        colors = run.colors_list(trial)
        count = verify_coloring(graph, colors)
        if count != run.num_colors(trial):
            raise AssertionError(
                f"verified colour count {count} != {run.num_colors(trial)} "
                "peeling layers"
            )
        if count > graph.max_degree() + 1:
            raise AssertionError(
                f"MIS peeling used {count} colours, more than "
                f"max_degree + 1 = {graph.max_degree() + 1}"
            )

    def output_size(self, run, trial):
        return run.num_colors(trial)


class DominatingSetRule(ApplicationRule):
    """Independent dominating sets: one MIS of ``G`` per trial."""

    @property
    def name(self) -> str:
        return "mis-dominating"

    def verify(self, graph, host, run, trial):
        chosen = run.chosen_set(trial)
        verify_mis(graph, chosen)
        verify_dominating_set(graph, chosen)

    def output_size(self, run, trial):
        return len(run.chosen_set(trial))


class MatchingRule(ApplicationRule):
    """Maximal matching: one MIS of the array-built line graph ``L(G)``."""

    @property
    def name(self) -> str:
        return "mis-matching"

    def host(self, graph: Graph) -> Graph:
        return line_graph_arrays(graph)[0]

    def host_size(self, graph: Graph) -> int:
        return graph.num_edges

    def matching_edges(
        self, graph: Graph, run: "ApplicationFleetRun", trial: int
    ) -> Set[Tuple[int, int]]:
        """One trial's chosen line-graph vertices decoded back to edges."""
        edges = list(graph.edges())
        return {edges[i] for i in run.chosen_set(trial)}

    def verify(self, graph, host, run, trial):
        verify_maximal_matching(
            graph, self.matching_edges(graph, run, trial)
        )

    def output_size(self, run, trial):
        return len(run.chosen_set(trial))


class RulingSetRule(ApplicationRule):
    """(3, 2)-ruling sets: one MIS of the graph's square."""

    @property
    def name(self) -> str:
        return "mis-ruling-3"

    def host(self, graph: Graph) -> Graph:
        return graph_power_matrix(graph, 2)

    def verify(self, graph, host, run, trial):
        verify_ruling_set(graph, run.chosen_set(trial), 3, 2)

    def output_size(self, run, trial):
        return len(run.chosen_set(trial))


#: The application kernels the fleet fabric can run, by sweep-axis name.
APPLICATION_RULES = {
    "mis-coloring": ColoringRule,
    "mis-matching": MatchingRule,
    "mis-dominating": DominatingSetRule,
    "mis-ruling-3": RulingSetRule,
}


@dataclass
class ApplicationFleetRun:
    """Per-trial outcomes of one application-kernel simulation.

    Row ``t`` of every array is trial ``t``; ``num_vertices`` (and the
    lane axis) refer to the *host* graph the MIS layers beeped on.
    ``colors[t, v]`` is the layer at which host vertex ``v`` joined its
    MIS (the colour for peeling rules, necessarily 0 for single-layer
    rules), or ``-1`` if it never joined — impossible after a completed
    layer of a single-shot rule, but kept uniform with peeling.
    """

    rule_name: str
    num_vertices: int
    trials: int
    rounds: np.ndarray
    layers: np.ndarray
    colors: np.ndarray
    beeps_by_node: np.ndarray

    @property
    def membership(self) -> np.ndarray:
        """``(trials, n)`` bool: host vertex joined some layer's MIS."""
        return self.colors >= 0

    @property
    def mean_beeps(self) -> np.ndarray:
        """Per-trial mean beeps per host vertex."""
        if self.num_vertices == 0:
            return np.zeros(self.trials, dtype=np.float64)
        return self.beeps_by_node.sum(axis=1) / float(self.num_vertices)

    def num_colors(self, trial: int) -> int:
        """Colour count of one trial (= layers executed for that trial)."""
        return int(self.layers[trial])

    def colors_list(self, trial: int) -> List[int]:
        """One trial's colours as the applications-layer list format."""
        return [int(c) for c in self.colors[trial]]

    def chosen_set(self, trial: int) -> Set[int]:
        """The layer-0 MIS of one trial — the chosen set of the
        single-layer reductions (and the first colour class of peeling)."""
        return {int(v) for v in np.flatnonzero(self.colors[trial] == 0)}


def _run_application_lockstep(
    rule: ApplicationRule,
    armada: ArmadaSimulator,
    seed_rows: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The layer loop: one armada round loop per MIS layer.

    ``seed_rows[g]`` holds the trial seeds of ``armada.graphs[g]`` (the
    host graphs).  Each layer runs the feedback rule once through
    :meth:`~repro.engine.fleet.ArmadaSimulator._lockstep`, started from
    the still-uncoloured lanes and with two twists that keep it
    bit-compatible with the per-node reduction over induced subgraphs:

    - the layer's seeds are ``counter_state(trial_seed, layer,
      DRAW_LAYER)`` — exactly what :class:`EngineMIS` hands the lone
      fleet run of the same layer;
    - uniforms are drawn *rank-compacted*: remaining vertex ``v`` reads
      lane ``rank(v)`` (its index among the trial's remaining vertices,
      ascending — the reference's subgraph relabelling), so the draw at
      ``v`` equals the subgraph fleet's draw at its relabelled lane bit
      for bit.

    The feedback rule's probabilities are constant per round-0 lane and
    updated elementwise, so the remaining lanes evolve exactly as the
    compacted subgraph batch would; the neighbour-OR restricted to
    remaining lanes equals the induced subgraph's OR because retired
    lanes never beep.  The armada's ``max_rounds`` bounds each layer
    separately, the same budget every per-node ``algorithm.run`` call
    gets.  Returns ``(rounds, layers, colors, beeps)``, with ``rounds``
    summed over layers.
    """
    mis_rule = FeedbackRule()
    seeds = np.concatenate(seed_rows)
    bounds = np.cumsum([row.size for row in seed_rows])[:-1]
    total = int(seeds.size)
    n = armada.graphs[0].num_vertices
    colors = np.full((total, n), -1, dtype=np.int64)
    beeps = np.zeros((total, n), dtype=np.int64)
    rounds = np.zeros(total, dtype=np.int64)
    layers = np.zeros(total, dtype=np.int64)
    remaining = np.ones((total, n), dtype=bool)
    layer = 0
    while True:
        live = remaining.any(axis=1)
        if not live.any():
            break
        if layer > n:
            raise RuntimeError(
                "application peeling exceeded the vertex count "
                f"({n} layers) — the inner MIS cannot be maximal"
            )
        layers += live
        layer_seeds = counter_state(seeds, layer, DRAW_LAYER)
        # rank[t, v]: v's lane in the induced-subgraph fleet the per-node
        # reduction would run for trial t this layer (garbage off-mask).
        rank = np.cumsum(remaining, axis=1, dtype=np.int64) - 1
        runs = armada._lockstep(
            mis_rule, np.split(layer_seeds, bounds), NO_FAULTS, "counter",
            False, initial_active=remaining, lanes=rank,
        )
        joined = np.concatenate([run.membership for run in runs])
        colors[joined] = layer
        beeps += np.concatenate([run.beeps_by_node for run in runs])
        rounds += np.concatenate([run.rounds for run in runs])
        if not rule.peel:
            break
        remaining &= ~joined
        layer += 1
    if probes.enabled():
        probes.count("engine.application.runs")
        probes.count("engine.application.trials", total)
        probes.count("engine.application.rounds", int(rounds.max(initial=0)))
        probes.count("engine.application.layers", int(layers.max(initial=0)))
    return rounds, layers, colors, beeps


class ApplicationFleetSimulator:
    """All trials of one application rule on one graph, in lockstep.

    The one-graph :class:`ApplicationArmadaSimulator` (the application
    sibling of :class:`~repro.engine.fleet.FleetSimulator`): builds the
    rule's host graph once, then ``run_fleet`` advances a
    ``(trials, n_host)`` batch of complete reductions through the
    armada's loop.  Counter rng mode only; trial ``t`` is a pure function
    of ``seeds[t]``, so any sub-batch equals the matching rows of the
    full batch bit for bit.
    """

    def __init__(
        self, graph: Graph, rule: ApplicationRule, backend: str = "auto"
    ) -> None:
        self._armada = ApplicationArmadaSimulator(
            [graph], rule, DEFAULT_MAX_ROUNDS, backend
        )

    @property
    def graph(self) -> Graph:
        """The input graph the application is computed for."""
        return self._armada.graphs[0]

    @property
    def host(self) -> Graph:
        """The host graph the inner MIS layers beep on."""
        return self._armada.hosts[0]

    @property
    def backend(self) -> str:
        """The resolved backend, ``"dense"`` or ``"sparse"``."""
        return self._armada.backend

    def run_fleet(self, seeds: Sequence[int]) -> ApplicationFleetRun:
        """Run one complete reduction per seed, all in lockstep (each
        verified, as in :meth:`ApplicationArmadaSimulator.run_armada`)."""
        return self._armada.run_armada([seeds])[0]


class ApplicationArmadaSimulator:
    """One lockstep layer loop for several same-host-size graphs.

    Holds one :class:`~repro.engine.fleet.ArmadaSimulator` over the host
    graphs: every ``(graph, trial)`` pair becomes one slot row of a
    ``(slots, n_host)`` batch (rows grouped per graph), the layer loop
    runs once for the whole cell with one armada run per layer, and the
    reductions stay block-diagonal, so slot ``(g, t)`` is bit-identical
    to trial ``t`` of
    ``ApplicationFleetSimulator(graphs[g], rule).run_fleet(seed_rows[g])``.
    The *host* vertex counts must match (for matching: equal edge
    counts), not the input ones.
    """

    def __init__(
        self,
        graphs: Sequence[Graph],
        rule: ApplicationRule,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        backend: str = "auto",
    ) -> None:
        if not isinstance(rule, ApplicationRule):
            raise TypeError(
                f"need an ApplicationRule, got {type(rule).__name__!r}"
            )
        self._graphs = list(graphs)
        self._rule = rule
        self._armada = ArmadaSimulator(
            [rule.host(graph) for graph in self._graphs], max_rounds, backend
        )

    @property
    def graphs(self) -> Sequence[Graph]:
        """The stacked input graphs, in slot order."""
        return tuple(self._graphs)

    @property
    def hosts(self) -> Sequence[Graph]:
        """The per-graph host graphs, in slot order."""
        return self._armada.graphs

    @property
    def backend(self) -> str:
        """The resolved backend, ``"dense"`` or ``"sparse"``."""
        return self._armada.backend

    def run_armada(
        self, seed_rows: Sequence[Sequence[int]]
    ) -> List[ApplicationFleetRun]:
        """Run every graph's trial group in one lockstep batch.

        ``seed_rows[g]`` holds graph ``g``'s trial seeds (rows may have
        different lengths).  Returns one :class:`ApplicationFleetRun`
        per graph.  Every peeling layer is verified as an MIS of the
        unpeeled vertices, every trial by :meth:`ApplicationRule.verify`.
        """
        groups = seed_groups(seed_rows, len(self._graphs))
        sizes = [int(group.size) for group in groups]
        rounds, layers, colors, beeps = _run_application_lockstep(
            self._rule, self._armada, groups
        )
        runs: List[ApplicationFleetRun] = []
        offset = 0
        for size, graph, host in zip(sizes, self._graphs, self.hosts):
            block = slice(offset, offset + size)
            offset += size
            run = ApplicationFleetRun(
                rule_name=self._rule.name,
                num_vertices=host.num_vertices,
                trials=size,
                rounds=rounds[block].copy(),
                layers=layers[block].copy(),
                colors=colors[block].copy(),
                beeps_by_node=beeps[block].copy(),
            )
            for trial in range(size):
                self._rule.verify(graph, host, run, trial)
            runs.append(run)
        return runs


class EngineMIS(MISAlgorithm):
    """The conformance bridge: per-node reductions on engine randomness.

    Call ``i`` of :meth:`run` executes a one-trial counter-mode
    :class:`~repro.engine.fleet.FleetSimulator` feedback run seeded with
    ``counter_state(trial_seed, i, DRAW_LAYER)`` — exactly the seed the
    vectorised kernels give layer ``i`` of the same trial.  The kernels
    run that layer on the same armada loop, masked to the remaining
    vertices and drawing their rank lanes; this adapter runs it on the
    relabelled induced subgraph itself.  Feeding this
    adapter to the *unchanged* per-node reductions in
    :mod:`repro.applications` (``mis_coloring``, ``mis_matching``,
    ``mis_dominating_set``, ``ruling_set``) therefore reproduces the
    kernels' outputs bit for bit, which is what makes them exact
    references rather than law-level ones.

    Deliberately stateful across calls (the call counter *is* the layer
    index), unlike the registry algorithms: one instance serves exactly
    one trial of one reduction.  The ``rng`` argument is ignored — all
    randomness is the counter fabric's.
    """

    def __init__(self, trial_seed: int) -> None:
        self._trial_seed = int(trial_seed)
        self._calls = 0

    @property
    def name(self) -> str:
        return "engine-feedback"

    @property
    def calls(self) -> int:
        """How many layers this adapter has run so far."""
        return self._calls

    def run(
        self,
        graph: Graph,
        rng,
        faults: FaultModel = NO_FAULTS,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
    ) -> MISRun:
        if not faults.is_fault_free:
            raise ValueError("EngineMIS does not support fault injection")
        layer_seed = int(
            counter_state(self._trial_seed, self._calls, DRAW_LAYER)
        )
        self._calls += 1
        run = FleetSimulator(graph, max_rounds=max_rounds).run_fleet(
            FeedbackRule(), [layer_seed], rng_mode="counter"
        )
        beeps = run.beeps_by_node[0].tolist()
        channel_bits = beep_channel_bits(graph, beeps)
        return MISRun(
            algorithm=self.name,
            graph=graph,
            mis=run.mis_set(0),
            rounds=int(run.rounds[0]),
            beeps_by_node=beeps,
            messages=channel_bits,
            bits=channel_bits,
        )
