"""The optimal-bit-complexity MIS algorithm of Métivier et al. (2011).

Cited by the paper as reference [18] — the algorithm whose O(log n) bound
is "the best possible bound that can apply for all networks".  Each round,
every active vertex draws a uniform random value and joins the MIS if its
value is a strict local minimum among active neighbours.  The novelty of
Métivier et al. is *bit accounting*: values are revealed bit by bit, and
neighbours stop comparing at the first differing bit, which makes the
expected number of exchanged bits per channel O(log n) over the whole run.

We simulate the round structure exactly and account bits the same way: for
each active edge, the number of bits exchanged in a round is one more than
the length of the common prefix of the endpoints' bit strings (capped at
the precision needed to separate them).

This module is the per-node reference; the vectorised lockstep
counterpart — :class:`~repro.engine.messages.MetivierRule`, including a
vectorised form of the same prefix accounting — runs on the fleet/armada
fabric in :mod:`repro.engine.messages`.
"""

from __future__ import annotations

from random import Random
from typing import Dict, Set

from repro.algorithms.base import MISAlgorithm, MISRun
from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.graphs.graph import Graph

_VALUE_BITS = 64


def _bits_to_separate(a: int, b: int, total_bits: int = _VALUE_BITS) -> int:
    """Bits revealed until two ``total_bits``-bit values first differ.

    Equal values (probability 2^-64 per pair; effectively never) cost the
    full precision.
    """
    if a == b:
        return total_bits
    differing = a ^ b
    # Position of the most significant differing bit, counted from the top.
    return total_bits - differing.bit_length() + 1


class MetivierMIS(MISAlgorithm):
    """Local-minimum MIS with bit-by-bit value comparison accounting."""

    @property
    def name(self) -> str:
        return "metivier"

    def run(
        self,
        graph: Graph,
        rng: Random,
        faults: FaultModel = NO_FAULTS,
        max_rounds: int = 100_000,
    ) -> MISRun:
        active: Set[int] = set(graph.vertices())
        mis: Set[int] = set()
        rounds = 0
        messages = 0
        bits = 0
        while active:
            if rounds >= max_rounds:
                raise RuntimeError(
                    f"Metivier simulation exceeded {max_rounds} rounds"
                )
            values: Dict[int, int] = {
                v: rng.getrandbits(_VALUE_BITS) for v in sorted(active)
            }
            # Bit accounting per active edge.
            for v in sorted(active):
                for w in graph.neighbors(v):
                    if w in active and v < w:
                        exchanged = _bits_to_separate(values[v], values[w])
                        # Both endpoints send each revealed bit.
                        bits += 2 * exchanged
                        messages += 2
            joined: Set[int] = set()
            for v in active:
                v_key = (values[v], v)
                if all(
                    v_key < (values[w], w)
                    for w in graph.neighbors(v)
                    if w in active
                ):
                    joined.add(v)
            mis.update(joined)
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
            bits=bits,
        )
