"""Asynchronous starts: the wake-on-beep beeping model.

The clean synchronous model assumes every node starts at round 0.  Afek et
al. (DISC 2011) also study the harder *wake-on-beep* setting: nodes sleep
until either an adversarially chosen wake-up round arrives or a neighbour's
beep reaches them (a sleeping radio can still be woken by carrier sense).
The PODC paper's robustness discussion ("the initial values ... may vary
from node to node") extends naturally to staggered starts, and this module
makes that testable.

Semantics per round:

1. Nodes whose scheduled round arrived wake up; nodes that heard a beep in
   the previous round wake up (wake-on-beep).
2. Awake active nodes run the usual two-exchange round.  Sleeping nodes
   never beep and never update their policy.
3. Joins require silence from *all* neighbours, which holds automatically
   for sleeping neighbours (they cannot beep).  A sleeping neighbour of a
   joiner is retired immediately — the join announcement is itself a beep,
   which wakes the sleeper and retires it in one step.

The output is therefore always an MIS of the whole graph, regardless of
the wake schedule; only the round count depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.beeping.node import BeepingNode, NodeState
from repro.graphs.graph import Graph
from repro.graphs.validation import verify_mis

NodeFactory = Callable[[int], BeepingNode]

DEFAULT_MAX_ROUNDS = 100_000


@dataclass
class WakeupResult:
    """The outcome of one wake-on-beep simulation."""

    graph: Graph
    mis: Set[int]
    num_rounds: int
    wake_round: Dict[int, int]
    beeps_by_node: List[int]

    @property
    def mean_beeps_per_node(self) -> float:
        """Mean beeps per node over the whole run."""
        if not self.beeps_by_node:
            return 0.0
        return sum(self.beeps_by_node) / len(self.beeps_by_node)

    def verify(self) -> Set[int]:
        """Assert the output is an MIS of the full graph."""
        return verify_mis(self.graph, self.mis)


class WakeupSimulation:
    """A beeping simulation with per-node wake-up rounds and wake-on-beep.

    Parameters
    ----------
    graph:
        The communication graph.
    node_factory:
        Policy factory, as in :class:`~repro.beeping.BeepingSimulation`.
    wake_schedule:
        ``wake_schedule[v]`` is the earliest round at which ``v`` may act;
        hearing a beep earlier wakes it earlier.  Length must equal the
        vertex count.
    rng:
        Source of all randomness.
    """

    def __init__(
        self,
        graph: Graph,
        node_factory: NodeFactory,
        wake_schedule: Sequence[int],
        rng: Random,
    ) -> None:
        if len(wake_schedule) != graph.num_vertices:
            raise ValueError(
                f"wake_schedule has {len(wake_schedule)} entries for "
                f"{graph.num_vertices} vertices"
            )
        if any(round_index < 0 for round_index in wake_schedule):
            raise ValueError("wake rounds must be >= 0")
        self._graph = graph
        self._rng = rng
        self._schedule = list(wake_schedule)
        self._nodes = [node_factory(v) for v in graph.vertices()]
        self._states = [NodeState.ACTIVE] * graph.num_vertices
        self._awake = [False] * graph.num_vertices
        self._actual_wake: Dict[int, int] = {}
        self._beeps = [0] * graph.num_vertices

    def _wake(self, vertex: int, round_index: int) -> None:
        if not self._awake[vertex]:
            self._awake[vertex] = True
            self._actual_wake[vertex] = round_index

    def run(self) -> WakeupResult:
        """Run rounds until every vertex is inactive."""
        round_index = 0
        pending_wake: Set[int] = set()
        while any(s is NodeState.ACTIVE for s in self._states):
            if round_index >= DEFAULT_MAX_ROUNDS:
                raise RuntimeError(
                    f"wake-up simulation exceeded {DEFAULT_MAX_ROUNDS} rounds"
                )
            # Scheduled wake-ups, plus wake-on-beep from the last round.
            for v in self._graph.vertices():
                if self._schedule[v] <= round_index:
                    self._wake(v, round_index)
            for v in pending_wake:
                self._wake(v, round_index)
            pending_wake = set()

            participants = [
                v
                for v in self._graph.vertices()
                if self._awake[v] and self._states[v] is NodeState.ACTIVE
            ]
            for v in participants:
                self._nodes[v].on_round_start(round_index)
            beepers: Set[int] = set()
            for v in participants:
                if self._rng.random() < self._nodes[v].beep_probability():
                    beepers.add(v)
                    self._beeps[v] += 1
            # Observations: participants adapt; sleeping neighbours of a
            # beeper are woken for the next round (wake-on-beep).
            heard: Set[int] = set()
            for v in self._graph.vertices():
                neighbor_beeped = not beepers.isdisjoint(
                    self._graph.neighbor_set(v)
                )
                if not neighbor_beeped:
                    continue
                if self._awake[v]:
                    heard.add(v)
                elif self._states[v] is NodeState.ACTIVE:
                    pending_wake.add(v)
            for v in participants:
                self._nodes[v].observe_first_exchange(
                    v in beepers, v in heard
                )
            # Second exchange: joins and retirements (sleeping neighbours
            # retire too — the announcement wakes and retires them).
            joined = {v for v in beepers if v not in heard}
            for v in sorted(joined):
                self._states[v] = NodeState.IN_MIS
                for w in self._graph.neighbors(v):
                    if self._states[w] is NodeState.ACTIVE:
                        self._states[w] = NodeState.RETIRED
                        self._wake(w, round_index)
            round_index += 1
        mis = {
            v
            for v in self._graph.vertices()
            if self._states[v] is NodeState.IN_MIS
        }
        return WakeupResult(
            graph=self._graph,
            mis=mis,
            num_rounds=round_index,
            wake_round=dict(self._actual_wake),
            beeps_by_node=list(self._beeps),
        )


def random_wake_schedule(
    num_vertices: int, max_delay: int, rng: Random
) -> List[int]:
    """Uniform random wake rounds in ``[0, max_delay]``."""
    if max_delay < 0:
        raise ValueError("max_delay must be >= 0")
    return [rng.randint(0, max_delay) for _ in range(num_vertices)]
