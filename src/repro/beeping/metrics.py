"""Per-round and per-node accounting.

The paper evaluates two resources: the number of synchronous rounds
(Figure 3) and the number of beeps each node emits (Figure 5, Theorem 6).
:class:`SimulationMetrics` tracks both, plus the derived totals used by the
benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

import numpy as np

from repro.graphs.graph import Graph


def beep_channel_bits(graph: Graph, beeps_by_node) -> Union[int, List[int]]:
    """The bits a run's beeps cost: one beep is one 1-bit message per
    incident channel of ``graph`` (the universe graph under churn).

    ``beeps_by_node`` is one run's per-vertex counts (the result is an
    ``int``) or a ``(trials, n)`` batch (a list of ``int``, one per
    trial): plain Python ints, which the shard store's rows require.
    """
    degrees = np.diff(graph.indptr).astype(np.int64)
    return (np.asarray(beeps_by_node, dtype=np.int64) @ degrees).tolist()


@dataclass(frozen=True)
class RoundRecord:
    """Aggregate counters for one round."""

    round_index: int
    active_before: int
    beeps: int
    joins: int
    retirements: int
    crashes: int = 0

    @property
    def became_inactive(self) -> int:
        """Vertices that left the active set this round (joins + retirements)."""
        return self.joins + self.retirements


@dataclass
class SimulationMetrics:
    """Counters accumulated over a whole simulation."""

    num_vertices: int
    beeps_by_node: List[int] = field(default_factory=list)
    round_records: List[RoundRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.beeps_by_node:
            self.beeps_by_node = [0] * self.num_vertices

    def record_beeps(self, beepers) -> None:
        """Count one beep for every vertex in ``beepers``."""
        for vertex in beepers:
            self.beeps_by_node[vertex] += 1

    def record_round(self, record: RoundRecord) -> None:
        """Append the aggregate record of a completed round."""
        self.round_records.append(record)

    @property
    def num_rounds(self) -> int:
        """Rounds executed."""
        return len(self.round_records)

    @property
    def total_beeps(self) -> int:
        """Total beeps emitted by all nodes over the whole run."""
        return sum(self.beeps_by_node)

    @property
    def mean_beeps_per_node(self) -> float:
        """Mean beeps per node — the Figure 5 / Theorem 6 quantity."""
        if self.num_vertices == 0:
            return 0.0
        return self.total_beeps / self.num_vertices
