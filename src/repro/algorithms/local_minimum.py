"""Deterministic local-minimum-ID MIS (the "why randomness?" baseline).

The classic deterministic local rule: every round, an active vertex whose
unique ID is smaller than all active neighbours' IDs joins the MIS; its
neighbours retire.  No randomness, no probabilities — but the worst case
is Θ(n) rounds (a path numbered 0,1,2,… peels one vertex per step from one
end... actually two per step; an increasing path still serialises), because
progress can be forced to propagate along an ID-sorted chain.

The paper's randomized algorithms exist precisely to beat this: the
test-suite and the round-distribution study use this baseline to show the
contrast (O(n) worst case and ID-ordering sensitivity vs O(log n)
regardless of names).

This module is the per-node reference; the vectorised lockstep
counterpart (:class:`~repro.engine.messages.LocalMinimumRule`, drawing
its ID permutation from the counter fabric) runs on the fleet/armada
fabric in :mod:`repro.engine.messages`.
"""

from __future__ import annotations

from random import Random
from typing import List, Optional, Sequence, Set

from repro.algorithms.base import MISAlgorithm, MISRun
from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.graphs.graph import Graph


class LocalMinimumIDMIS(MISAlgorithm):
    """Deterministic MIS by iterated local ID minima.

    Parameters
    ----------
    ids:
        Optional fixed ID assignment (a permutation of ``0..n-1`` is
        typical).  By default each run draws a random permutation from the
        run's RNG, modelling arbitrary-but-unique network IDs.
    """

    def __init__(self, ids: Optional[Sequence[int]] = None) -> None:
        self._fixed_ids = list(ids) if ids is not None else None

    @property
    def name(self) -> str:
        return "local-minimum-id"

    def run(
        self,
        graph: Graph,
        rng: Random,
        faults: FaultModel = NO_FAULTS,
        max_rounds: int = 100_000,
    ) -> MISRun:
        n = graph.num_vertices
        if self._fixed_ids is not None:
            if sorted(self._fixed_ids) != list(range(n)):
                raise ValueError(
                    "ids must be a permutation of 0..n-1 for this graph"
                )
            ids: List[int] = list(self._fixed_ids)
        else:
            ids = list(range(n))
            rng.shuffle(ids)
        active: Set[int] = set(graph.vertices())
        mis: Set[int] = set()
        rounds = 0
        messages = 0
        while active:
            if rounds >= max_rounds:
                raise RuntimeError(
                    f"local-minimum simulation exceeded {max_rounds} rounds"
                )
            joined = {
                v
                for v in active
                if all(
                    ids[v] < ids[w]
                    for w in graph.neighbors(v)
                    if w in active
                )
            }
            messages += sum(
                sum(1 for w in graph.neighbors(v) if w in active)
                for v in active
            )
            mis |= joined
            removed = set(joined)
            for v in joined:
                for w in graph.neighbors(v):
                    if w in active:
                        removed.add(w)
            active -= removed
            rounds += 1
        return MISRun(
            algorithm=self.name,
            graph=graph,
            mis=mis,
            rounds=rounds,
            messages=messages,
            bits=messages * max(1, (n - 1).bit_length() if n > 1 else 1),
            extra={"ids": ids},
        )
