"""Afek et al. (Science 2011): global probabilities computed from n and D.

The original biological-solution paper assumes every node knows the number
of nodes ``n`` and an upper bound ``D`` on the maximum degree.  The shared
beep probability starts at ``1/(2D)`` and doubles every ``M = ⌈c·log₂ n⌉``
rounds until it reaches ``1/2``, where it stays — "a sequence of gradually
increasing global probability values calculated from the total number of
nodes of the graph and its maximum degree" (Section 1 of the PODC paper).

This implementation is faithful in structure (log D phases of Θ(log n)
steps with doubling probabilities) with the phase length coefficient fixed
at ``c = 2``; the PODC paper's experiments use the *sweeping*
refinement (:mod:`repro.algorithms.afek_sweep`), so this class mainly
serves the Figure 5 discussion (constant beeps per node when probabilities
start low) and as an extra baseline.
"""

from __future__ import annotations

import math

from repro.algorithms.base import BeepingMIS
from repro.beeping.node import BeepingNode
from repro.beeping.scheduler import NodeFactory
from repro.graphs.graph import Graph


def global_schedule(
    round_index: int, num_vertices: int, max_degree: int
) -> float:
    """The shared probability at a round, given global knowledge.

    Starts at ``1/(2D)`` and doubles every ``⌈2·log₂ n⌉`` rounds, capped at
    ``1/2``.  Degenerate graphs (``D = 0``) get ``1/2`` immediately.
    """
    if round_index < 0:
        raise ValueError(f"round_index must be >= 0, got {round_index}")
    if max_degree <= 0:
        return 0.5
    phase_length = max(1, math.ceil(2.0 * math.log2(max(num_vertices, 2))))
    phase = round_index // phase_length
    return min(0.5, (2.0 ** phase) / (2.0 * max_degree))


class _GlobalScheduleNode(BeepingNode):
    """A node following the Science 2011 global schedule."""

    __slots__ = ("_num_vertices", "_max_degree", "_probability")

    def __init__(self, num_vertices: int, max_degree: int) -> None:
        self._num_vertices = num_vertices
        self._max_degree = max_degree
        self._probability = global_schedule(0, num_vertices, max_degree)

    def on_round_start(self, round_index: int) -> None:
        self._probability = global_schedule(
            round_index, self._num_vertices, self._max_degree
        )

    def beep_probability(self) -> float:
        return self._probability

    def observe_first_exchange(self, did_beep: bool, heard_beep: bool) -> None:
        pass


class AfekGlobalMIS(BeepingMIS):
    """The Science 2011 beeping MIS algorithm (requires n and max degree)."""

    @property
    def name(self) -> str:
        return "afek-global"

    def node_factory(self, graph: Graph) -> NodeFactory:
        num_vertices, max_degree = graph.num_vertices, graph.max_degree()
        return lambda vertex: _GlobalScheduleNode(num_vertices, max_degree)
