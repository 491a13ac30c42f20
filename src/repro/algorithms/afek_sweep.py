"""Afek et al. (DISC 2011): preset global sweeping probabilities.

This is the baseline the paper measures against in Figures 3 and 5, in the
refined form that needs no knowledge of the network: the computation is
divided into phases 1, 2, 3, …; phase ``k`` has ``k + 1`` steps during which
the shared probability starts at 1 and halves each step.  The global
sequence is therefore::

    1, 1/2 | 1, 1/2, 1/4 | 1, 1/2, 1/4, 1/8 | ...

(with ``|`` marking phase boundaries), exactly as printed in the paper's
Section 1.  Theorem 1 shows this style of algorithm — *any* preset global
sequence — needs Ω(log² n) rounds on the disjoint-clique family.
"""

from __future__ import annotations

import math
from random import Random
from typing import Optional, Tuple

from repro.algorithms.base import MISAlgorithm, MISRun
from repro.beeping.events import Trace
from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.beeping.node import BeepingNode
from repro.beeping.scheduler import BeepingSimulation
from repro.graphs.graph import Graph


def sweep_phase_position(round_index: int) -> Tuple[int, int]:
    """Map a 0-based round index to ``(phase, step_in_phase)``.

    Phase ``k`` (1-based) occupies ``k + 1`` consecutive rounds, so the
    first rounds of phases 1, 2, 3, … are at indices 0, 2, 5, 9, ….
    """
    if round_index < 0:
        raise ValueError(f"round_index must be >= 0, got {round_index}")
    # Rounds before phase k: sum_{j=1}^{k-1} (j + 1) = (k - 1)(k + 2) / 2.
    # Solve for the largest k with that quantity <= round_index.
    k = max(1, int((math.sqrt(9 + 8 * round_index) - 1) / 2))
    while (k - 1) * (k + 2) // 2 > round_index:
        k -= 1
    while k * (k + 3) // 2 <= round_index:
        k += 1
    step = round_index - (k - 1) * (k + 2) // 2
    return k, step


def sweep_probability(round_index: int) -> float:
    """The shared beep probability at a 0-based round index.

    >>> [sweep_probability(t) for t in range(5)]
    [1.0, 0.5, 1.0, 0.5, 0.25]
    """
    _phase, step = sweep_phase_position(round_index)
    return 2.0 ** -step


class SweepScheduleNode(BeepingNode):
    """A node following the global sweep schedule (no local state)."""

    __slots__ = ("_probability",)

    def __init__(self) -> None:
        self._probability = sweep_probability(0)

    def on_round_start(self, round_index: int) -> None:
        self._probability = sweep_probability(round_index)

    def beep_probability(self) -> float:
        return self._probability

    def observe_first_exchange(self, did_beep: bool, heard_beep: bool) -> None:
        pass


class AfekSweepMIS(MISAlgorithm):
    """The DISC 2011 sweeping-probability beeping MIS algorithm."""

    @property
    def name(self) -> str:
        return "afek-sweep"

    def run(
        self,
        graph: Graph,
        rng: Random,
        trace: Optional[Trace] = None,
        faults: FaultModel = NO_FAULTS,
        max_rounds: int = 100_000,
    ) -> MISRun:
        simulation = BeepingSimulation(
            graph,
            lambda vertex: SweepScheduleNode(),
            rng,
            faults=faults,
            trace=trace,
            max_rounds=max_rounds,
        )
        result = simulation.run()
        # Under churn, result.graph is the universe graph (base plus
        # joiners) and the metrics are universe-length.
        message_bits = sum(
            beeps * result.graph.degree(v)
            for v, beeps in enumerate(result.metrics.beeps_by_node)
        )
        return MISRun(
            algorithm=self.name,
            graph=result.graph,
            mis=result.mis,
            rounds=result.num_rounds,
            beeps_by_node=list(result.metrics.beeps_by_node),
            messages=message_bits,
            bits=message_bits,
            simulation=result,
            absent=set(result.absent),
            repair_rounds=result.repair_rounds,
            recovered=result.recovered,
        )
