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
from typing import Tuple

from repro.algorithms.base import BeepingMIS
from repro.beeping.node import BeepingNode
from repro.beeping.scheduler import NodeFactory
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


class AfekSweepMIS(BeepingMIS):
    """The DISC 2011 sweeping-probability beeping MIS algorithm."""

    @property
    def name(self) -> str:
        return "afek-sweep"

    def node_factory(self, graph: Graph) -> NodeFactory:
        return lambda vertex: SweepScheduleNode()
