"""Centralised sequential MIS (the paper's "trivial" reference algorithm).

Section 1: "computing an arbitrary MIS using a centralised sequential
algorithm is trivial: simply scan the nodes in arbitrary order".  This is
the ground-truth oracle the tests compare the distributed algorithms
against (same sizes statistics, validation of MIS-ness) and what the
Figure 1 example uses to draw *an* MIS of the 20-node graph.
"""

from __future__ import annotations

from random import Random
from typing import Iterable, List, Optional, Sequence, Set

from repro.algorithms.base import MISAlgorithm, MISRun
from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.graphs.graph import Graph


def greedy_mis(graph: Graph, order: Optional[Sequence[int]] = None) -> Set[int]:
    """Scan vertices in ``order`` (default 0..n-1), adding each vertex that
    does not violate independence.

    >>> from repro.graphs import path_graph
    >>> sorted(greedy_mis(path_graph(4)))
    [0, 2]
    """
    if order is None:
        order = list(graph.vertices())
    else:
        if sorted(order) != list(graph.vertices()):
            raise ValueError("order must be a permutation of all vertices")
    mis: Set[int] = set()
    blocked: Set[int] = set()
    for v in order:
        if v in blocked:
            continue
        mis.add(v)
        blocked.add(v)
        blocked.update(graph.neighbors(v))
    return mis


class SequentialGreedyMIS(MISAlgorithm):
    """The centralised scan, with an optional random scan order.

    ``randomize_order=True`` draws a uniformly random permutation per run,
    which makes the output distribution match Luby's permutation variant's
    single-round marginal — a useful statistical cross-check.
    """

    def __init__(self, randomize_order: bool = True) -> None:
        self._randomize_order = randomize_order

    @property
    def name(self) -> str:
        return "greedy" if self._randomize_order else "greedy-fixed"

    def run(
        self,
        graph: Graph,
        rng: Random,
        faults: FaultModel = NO_FAULTS,
        max_rounds: int = 100_000,
    ) -> MISRun:
        order: List[int] = list(graph.vertices())
        if self._randomize_order:
            rng.shuffle(order)
        mis = greedy_mis(graph, order)
        return MISRun(
            algorithm=self.name,
            graph=graph,
            mis=mis,
            rounds=1,
            extra={"order": order},
        )
