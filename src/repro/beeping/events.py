"""Structured trace events emitted by the scheduler.

Traces are optional (they cost memory proportional to activity), but they
are what makes the proof-of-Theorem-2 instrumentation possible: the
potential-function analysis in :mod:`repro.core.instrumentation` replays a
trace to classify every round of a vertex's life into the proof's E1–E4
events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple


@dataclass(frozen=True)
class RoundEvent:
    """Everything that happened in one round.

    Attributes
    ----------
    round_index:
        0-based round number.
    beepers:
        Vertices that beeped in the first exchange.
    heard:
        Vertices (among the active listeners) that heard at least one beep.
    joined:
        Vertices added to the MIS this round.
    retired:
        Vertices that became inactive because a neighbour joined.
    crashed:
        Vertices removed by the crash schedule at the start of this round.
    probabilities:
        Beep probability of each active vertex at the *start* of the round,
        as ``(vertex, probability)`` pairs sorted by vertex; ``None`` when
        probability recording is disabled.
    """

    round_index: int
    beepers: FrozenSet[int]
    heard: FrozenSet[int]
    joined: FrozenSet[int]
    retired: FrozenSet[int]
    crashed: FrozenSet[int] = frozenset()
    probabilities: Optional[Tuple[Tuple[int, float], ...]] = None


@dataclass(frozen=True)
class NodeJoinedEvent:
    """Vertex ``vertex`` joined the MIS in round ``round_index``."""

    round_index: int
    vertex: int


@dataclass(frozen=True)
class NodeRetiredEvent:
    """Vertex ``vertex`` retired in round ``round_index`` because neighbour
    ``cause`` joined the MIS."""

    round_index: int
    vertex: int
    cause: int


@dataclass
class Trace:
    """An append-only record of a simulation.

    ``record_probabilities`` controls whether per-round probability
    snapshots are stored (needed by the potential-function instrumentation,
    but memory-hungry for large graphs).
    """

    record_probabilities: bool = False
    rounds: List[RoundEvent] = field(default_factory=list)
    joins: List[NodeJoinedEvent] = field(default_factory=list)
    retirements: List[NodeRetiredEvent] = field(default_factory=list)

    def append_round(self, event: RoundEvent) -> None:
        """Record a completed round."""
        if event.round_index != len(self.rounds):
            raise ValueError(
                f"round {event.round_index} appended out of order "
                f"(expected {len(self.rounds)})"
            )
        self.rounds.append(event)
        for vertex in sorted(event.joined):
            self.joins.append(NodeJoinedEvent(event.round_index, vertex))

    def append_retirement(
        self, round_index: int, vertex: int, cause: int
    ) -> None:
        """Record that ``vertex`` retired because ``cause`` joined."""
        self.retirements.append(
            NodeRetiredEvent(round_index, vertex, cause)
        )

    @property
    def num_rounds(self) -> int:
        """Number of rounds recorded so far."""
        return len(self.rounds)
