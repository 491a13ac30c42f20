"""The common interface of all MIS algorithms.

Every algorithm — beeping or message-passing, distributed or centralised —
implements :class:`MISAlgorithm` and returns an :class:`MISRun`, so the
experiment harness can sweep over algorithms uniformly.  The beeping
algorithms on the per-node scheduler subclass :class:`BeepingMIS`, which
owns their one ``run``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional, Set

from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.beeping.metrics import beep_channel_bits
from repro.beeping.scheduler import (
    BeepingSimulation,
    NodeFactory,
    SimulationResult,
)
from repro.graphs.graph import Graph
from repro.graphs.validation import verify_mis


@dataclass
class MISRun:
    """The outcome of running one MIS algorithm once on one graph.

    Attributes
    ----------
    algorithm:
        Name of the algorithm that produced this run.
    graph:
        The input graph.
    mis:
        The computed maximal independent set.
    rounds:
        Synchronous rounds used (1 for centralised algorithms).
    beeps_by_node:
        Per-vertex beep counts, for beeping algorithms; ``None`` otherwise.
    messages:
        Total messages sent, for message-passing algorithms (a beep counts
        as one message per incident channel).
    bits:
        Total bits sent across all channels.
    simulation:
        The underlying :class:`SimulationResult` for beeping algorithms.
    absent:
        Universe vertices outside the final alive subgraph of a churn
        run (departed, asleep at the end, or never joined); empty
        otherwise.  Under churn, ``graph`` is the universe graph.
    repair_rounds:
        Per-churn-event repair times (``-1`` for events unresolved at
        the round cap); empty without churn.
    recovered:
        ``False`` when the round budget interrupted an unfinished
        churn repair (the run then degrades gracefully instead of
        raising).
    extra:
        Algorithm-specific diagnostics.
    """

    algorithm: str
    graph: Graph
    mis: Set[int]
    rounds: int
    beeps_by_node: Optional[List[int]] = None
    messages: int = 0
    bits: int = 0
    simulation: Optional[SimulationResult] = None
    absent: Set[int] = field(default_factory=set)
    repair_rounds: tuple = ()
    recovered: bool = True
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def mean_beeps_per_node(self) -> float:
        """Mean beeps per node; 0.0 for non-beeping algorithms."""
        if not self.beeps_by_node:
            return 0.0
        return sum(self.beeps_by_node) / len(self.beeps_by_node)

    @property
    def mis_size(self) -> int:
        """Number of vertices selected."""
        return len(self.mis)

    def verify(self) -> Set[int]:
        """Assert the output is an MIS of the survivors (:func:`verify_mis`).

        Crashed vertices come from the underlying simulation, when one
        exists; an unrecovered run (``recovered=False``) skips only
        maximality.
        """
        return verify_mis(
            self.graph,
            self.mis,
            crashed=(
                self.simulation.crashed
                if self.simulation is not None
                else ()
            ),
            absent=self.absent,
            recovered=self.recovered,
        )


class MISAlgorithm(ABC):
    """An MIS selection algorithm.

    Implementations must be stateless across calls: all per-run state lives
    inside :meth:`run`, so a single instance can be reused across trials.
    """

    @property
    @abstractmethod
    def name(self) -> str:
        """A short stable identifier (used by the registry and reports)."""

    @abstractmethod
    def run(
        self,
        graph: Graph,
        rng: Random,
        faults: FaultModel = NO_FAULTS,
        max_rounds: int = 100_000,
    ) -> MISRun:
        """Compute an MIS of ``graph`` using randomness from ``rng``.

        ``faults`` are honoured by the beeping algorithms; message-passing
        and centralised algorithms ignore them.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class BeepingMIS(MISAlgorithm):
    """A beeping algorithm on the per-node scheduler
    (:class:`~repro.beeping.scheduler.BeepingSimulation`).

    The paper's beeping algorithms share the two-exchange round and
    differ only in how a node picks its beep probability, so a subclass
    supplies just a name and :meth:`node_factory`.
    """

    @abstractmethod
    def node_factory(self, graph: Graph) -> NodeFactory:
        """The per-vertex policy factory for one run on ``graph`` (the
        input graph, before any churn joiners are added)."""

    def run(
        self,
        graph: Graph,
        rng: Random,
        faults: FaultModel = NO_FAULTS,
        max_rounds: int = 100_000,
    ) -> MISRun:
        result = BeepingSimulation(
            graph,
            self.node_factory(graph),
            rng,
            faults=faults,
            max_rounds=max_rounds,
        ).run()
        # Under churn, result.graph is the universe graph (base plus
        # joiners) and the metrics are universe-length.
        channel_bits = beep_channel_bits(
            result.graph, result.metrics.beeps_by_node
        )
        return MISRun(
            algorithm=self.name,
            graph=result.graph,
            mis=result.mis,
            rounds=result.num_rounds,
            beeps_by_node=list(result.metrics.beeps_by_node),
            messages=channel_bits,
            bits=channel_bits,
            simulation=result,
            absent=set(result.absent),
            repair_rounds=result.repair_rounds,
            recovered=result.recovered,
        )
