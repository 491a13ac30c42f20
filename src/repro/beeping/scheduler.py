"""The synchronous round loop of the beeping model.

One :class:`BeepingSimulation` executes one algorithm instance on one graph.
Each round has the two-exchange structure shared by all the paper's beeping
algorithms:

1. **First exchange.**  Every active node beeps with its current
   probability; every active node then observes whether at least one
   neighbour beeped and feeds that observation back into its policy.
2. **Second exchange.**  A node that beeped while *no neighbour actually
   beeped* joins the MIS and announces it; active neighbours of joiners
   retire.

Fault handling: the injected channel faults (:mod:`repro.beeping.faults`)
perturb only the *observation* used for probability feedback.  Join
eligibility and join/retire notifications are computed from the true beep
sets, so the output is a valid MIS even under heavy noise — noise can only
slow the algorithm down.  This matches the separation assumed by the paper's
robustness discussion, which concerns the probability-adaptation path.

The scheduler owns all state transitions; policies (:class:`BeepingNode`)
only choose probabilities.  This makes it impossible for a policy bug to
produce a non-independent or non-maximal output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Optional, Set

from repro.beeping.channel import BeepChannel
from repro.beeping.events import RoundEvent, Trace
from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.beeping.metrics import RoundRecord, SimulationMetrics
from repro.beeping.node import BeepingNode, NodeState
from repro.graphs.graph import Graph
from repro.graphs.validation import verify_mis

NodeFactory = Callable[[int], BeepingNode]

DEFAULT_MAX_ROUNDS = 100_000


class TerminationError(RuntimeError):
    """Raised when a simulation exceeds its round budget.

    For the algorithms in this library the expected round count is
    logarithmic (feedback) or polylogarithmic (global sweep), so hitting the
    default budget of 100,000 rounds indicates a bug, not bad luck.
    """


@dataclass
class SimulationResult:
    """The outcome of one completed simulation.

    Under churn, ``graph`` is the *universe* graph (base plus joiners),
    ``absent`` the universe vertices outside the final alive subgraph
    (departed, asleep at the end, or never joined), ``repair_rounds``
    the per-event-round repair times (see ``docs/robustness.md``), and
    ``recovered`` is ``False`` when the round budget interrupted an
    unfinished repair.
    """

    graph: Graph
    mis: Set[int]
    states: List[NodeState]
    metrics: SimulationMetrics
    trace: Optional[Trace]
    crashed: Set[int]
    absent: Set[int] = field(default_factory=set)
    repair_rounds: tuple = ()
    recovered: bool = True

    @property
    def num_rounds(self) -> int:
        """Rounds until every surviving node became inactive."""
        return self.metrics.num_rounds

    @property
    def mean_beeps_per_node(self) -> float:
        """Mean beeps per node (the Figure 5 quantity)."""
        return self.metrics.mean_beeps_per_node

    def verify(self) -> Set[int]:
        """Assert the output is an MIS of the surviving graph
        (:func:`~repro.graphs.validation.verify_mis` with this run's
        crashed, absent and recovered fields)."""
        return verify_mis(
            self.graph,
            self.mis,
            crashed=self.crashed,
            absent=self.absent,
            recovered=self.recovered,
        )


class BeepingSimulation:
    """Runs one beeping MIS algorithm on one graph.

    Parameters
    ----------
    graph:
        The communication graph.
    node_factory:
        Called once per vertex to create its probability policy.
    rng:
        Source of all randomness for this run.
    faults:
        Optional fault model (default: fault-free).
    trace:
        Optional :class:`Trace` to fill with per-round events.
    max_rounds:
        Round budget; exceeding it raises :class:`TerminationError`.
    """

    def __init__(
        self,
        graph: Graph,
        node_factory: NodeFactory,
        rng: Random,
        faults: FaultModel = NO_FAULTS,
        trace: Optional[Trace] = None,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
    ) -> None:
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        self._churn = faults.churn_schedule
        self._has_churn = not self._churn.is_empty()
        if self._has_churn:
            # Expand to the universe graph; joiners exist from round 0 as
            # vertices but stay outside the system until their join round.
            graph = self._churn.universe_graph(graph)
        self._graph = graph
        self._rng = rng
        self._channel = BeepChannel(graph, faults)
        self._faults = faults
        self._trace = trace
        self._max_rounds = max_rounds
        self._node_factory = node_factory
        self._nodes: List[BeepingNode] = [
            node_factory(v) for v in graph.vertices()
        ]
        self._states: List[NodeState] = [NodeState.ACTIVE] * graph.num_vertices
        self._crashed: Set[int] = set()
        self._departed: Set[int] = set()
        self._asleep: Set[int] = set()
        self._not_joined: Set[int] = {
            event.vertex for event in self._churn.join_events()
        }
        for v in self._not_joined:
            self._states[v] = NodeState.RETIRED
        self._event_rounds = self._churn.event_rounds()
        self._repair: List[int] = [-1] * len(self._event_rounds)
        self._recovered = True
        self._metrics = SimulationMetrics(graph.num_vertices)
        self._round_index = 0

    # ------------------------------------------------------------------
    # Introspection (used by tests and instrumentation)
    # ------------------------------------------------------------------

    @property
    def round_index(self) -> int:
        """The index of the next round to execute."""
        return self._round_index

    def active_vertices(self) -> List[int]:
        """Sorted list of currently active vertices."""
        return [
            v
            for v in self._graph.vertices()
            if self._states[v] is NodeState.ACTIVE
        ]

    @property
    def is_terminated(self) -> bool:
        """Whether no active vertices remain."""
        return not self.active_vertices()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> RoundRecord:
        """Execute one round and return its aggregate record."""
        round_index = self._round_index
        if self._has_churn:
            self._apply_churn(round_index)
        self._apply_crashes(round_index)
        active = self.active_vertices()
        crashed_now = self._faults.crash_schedule.crashed_at(round_index)

        for v in active:
            self._nodes[v].on_round_start(round_index)

        probabilities = None
        if self._trace is not None and self._trace.record_probabilities:
            probabilities = tuple(
                (v, self._nodes[v].beep_probability()) for v in active
            )

        # First exchange: beep decisions, in vertex order for determinism.
        beepers: Set[int] = set()
        for v in active:
            probability = self._nodes[v].beep_probability()
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"policy of vertex {v} returned probability "
                    f"{probability} outside [0, 1]"
                )
            if self._rng.random() < probability:
                beepers.add(v)

        # Observation (possibly noisy) and probability feedback.
        heard = self._channel.deliver(beepers, set(active), self._rng)
        for v in active:
            self._nodes[v].observe_first_exchange(v in beepers, v in heard)

        # Second exchange: joins and retirements from the *true* beep sets.
        joined: Set[int] = {
            v
            for v in beepers
            if not self._channel.reliable_or(beepers, v)
        }
        retired: Set[int] = set()
        retire_cause: Dict[int, int] = {}
        for v in sorted(joined):
            self._states[v] = NodeState.IN_MIS
            for w in self._graph.neighbors(v):
                if self._states[w] is NodeState.ACTIVE:
                    self._states[w] = NodeState.RETIRED
                    retired.add(w)
                    retire_cause[w] = v

        # Accounting.
        self._metrics.record_beeps(beepers)
        record = RoundRecord(
            round_index=round_index,
            active_before=len(active),
            beeps=len(beepers),
            joins=len(joined),
            retirements=len(retired),
            crashes=len(crashed_now),
        )
        self._metrics.record_round(record)
        if self._trace is not None:
            self._trace.append_round(
                RoundEvent(
                    round_index=round_index,
                    beepers=frozenset(beepers),
                    heard=frozenset(heard),
                    joined=frozenset(joined),
                    retired=frozenset(retired),
                    crashed=frozenset(crashed_now),
                    probabilities=probabilities,
                )
            )
            for w in sorted(retired):
                self._trace.append_retirement(round_index, w, retire_cause[w])

        self._round_index += 1
        if self._has_churn and not self.active_vertices():
            self._record_quiescence(
                self._round_index, applied_rounds=self._round_index - 1
            )
        return record

    def _apply_churn(self, round_index: int) -> None:
        """Apply one round's churn batch in the canonical order.

        Leaves, then sleeps, then wakes, then joins, then one
        deterministic resolution pass: entrants listen first (a covered
        entrant retires on the spot), and every present, awake, retired,
        uncovered survivor re-enters the competition with a fresh policy
        object — the self-repair step.  The pass draws no randomness, so
        it leaves the engines' one-draw-order contract untouched.
        """
        events = self._churn.events_at(round_index)
        if not any(events.values()):
            return
        for v in events["leave"]:
            self._states[v] = NodeState.RETIRED
            self._departed.add(v)
            self._asleep.discard(v)
        for v in events["sleep"]:
            self._states[v] = NodeState.RETIRED
            self._asleep.add(v)
        for v in events["wake"]:
            self._asleep.discard(v)
        for v in events["join"]:
            self._not_joined.discard(v)
        in_mis = {
            v
            for v in self._graph.vertices()
            if self._states[v] is NodeState.IN_MIS
        }
        for v in self._graph.vertices():
            if self._states[v] is not NodeState.RETIRED:
                continue
            if (
                v in self._departed
                or v in self._asleep
                or v in self._not_joined
                or v in self._crashed
            ):
                continue
            if not any(w in in_mis for w in self._graph.neighbors(v)):
                self._states[v] = NodeState.ACTIVE
                self._nodes[v] = self._node_factory(v)
        if not self.active_vertices():
            self._record_quiescence(round_index)

    def _record_quiescence(
        self, executed_rounds: int, applied_rounds: int = -1
    ) -> None:
        # ``applied_rounds`` mirrors ChurnState.record_quiescence: the
        # end-of-round checkpoint after round r has executed r + 1 rounds
        # but must not resolve an event at round r + 1 whose batch has
        # not been applied yet.
        if applied_rounds < 0:
            applied_rounds = executed_rounds
        for b, event_round in enumerate(self._event_rounds):
            if event_round > applied_rounds:
                break
            if self._repair[b] == -1:
                self._repair[b] = executed_rounds - event_round

    def _apply_crashes(self, round_index: int) -> None:
        for v in self._faults.crash_schedule.crashed_at(round_index):
            if v in self._graph and self._states[v] is NodeState.ACTIVE:
                self._states[v] = NodeState.RETIRED
                self._crashed.add(v)

    def run(self) -> SimulationResult:
        """Run rounds until termination and return the result.

        Under churn the loop also spans quiet gaps up to the last event
        round (entrants can re-open the competition), and exceeding the
        round budget degrades gracefully — ``recovered=False`` on the
        result — instead of raising :class:`TerminationError`.
        """
        last_event = self._churn.last_event_round
        while not self.is_terminated or self._round_index <= last_event:
            if self._round_index >= self._max_rounds:
                if self._has_churn:
                    self._recovered = False
                    break
                raise TerminationError(
                    f"simulation exceeded {self._max_rounds} rounds with "
                    f"{len(self.active_vertices())} vertices still active"
                )
            self.step()
        mis = {
            v
            for v in self._graph.vertices()
            if self._states[v] is NodeState.IN_MIS
        }
        absent = self._departed | self._asleep | self._not_joined
        return SimulationResult(
            graph=self._graph,
            mis=mis,
            states=list(self._states),
            metrics=self._metrics,
            trace=self._trace,
            crashed=set(self._crashed),
            absent=absent,
            repair_rounds=tuple(self._repair),
            recovered=self._recovered,
        )
