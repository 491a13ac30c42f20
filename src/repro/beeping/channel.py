"""One-round beep propagation.

The channel turns "who beeped" into "who heard a beep", applying the fault
model.  In the fault-free case a node hears a beep exactly when at least one
neighbour beeped — the one-bit OR observation of the beeping model.
"""

from __future__ import annotations

from random import Random
from typing import AbstractSet, Set

from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.graphs.graph import Graph


class BeepChannel:
    """Propagates beeps across a graph under a fault model.

    A single channel instance serves a whole simulation; it is stateless
    apart from its configuration.
    """

    def __init__(self, graph: Graph, faults: FaultModel = NO_FAULTS) -> None:
        self._graph = graph
        self._faults = faults

    @property
    def graph(self) -> Graph:
        """The underlying communication graph."""
        return self._graph

    def deliver(
        self,
        beepers: AbstractSet[int],
        listeners: AbstractSet[int],
        rng: Random,
    ) -> Set[int]:
        """Compute which ``listeners`` hear at least one beep.

        Parameters
        ----------
        beepers:
            Vertices that emitted a beep this round.
        listeners:
            Vertices whose observation matters (active nodes).  Inactive or
            crashed vertices need no delivery.
        rng:
            Source of randomness for fault injection.  Unused when the model
            is fault-free, so fault-free runs consume no extra randomness
            (this keeps the reference engine and the vectorised engine on
            identical random streams).

        Returns
        -------
        The set of listeners that hear a beep.
        """
        loss = self._faults.beep_loss_probability
        spurious = self._faults.spurious_beep_probability
        heard: Set[int] = set()
        if loss == 0.0:
            # Fast path: a listener hears iff some neighbour beeped.
            for v in listeners:
                neighbor_set = self._graph.neighbor_set(v)
                if not beepers.isdisjoint(neighbor_set):
                    heard.add(v)
        else:
            # Each (beeper -> listener) delivery is dropped independently.
            # Iterate in sorted order so the random stream is deterministic.
            for v in sorted(listeners):
                for w in self._graph.neighbors(v):
                    if w in beepers and rng.random() >= loss:
                        heard.add(v)
                        break
        if spurious > 0.0:
            for v in sorted(listeners):
                if v not in heard and rng.random() < spurious:
                    heard.add(v)
        return heard

    def reliable_or(self, beepers: AbstractSet[int], vertex: int) -> bool:
        """Fault-free observation for ``vertex`` (used by the second,
        reliable exchange: join/retire notifications)."""
        return not beepers.isdisjoint(self._graph.neighbor_set(vertex))
