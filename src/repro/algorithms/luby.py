"""Luby's randomized MIS algorithm (the classic O(log n) baseline).

The paper positions its contribution against "the elegant randomized
algorithm of [3, 16], generally known as Luby's algorithm".  Luby's
algorithm is a *message-passing* algorithm — nodes exchange numeric values
with identified neighbours — so it does not run on the beeping scheduler.
This module is the per-node *reference* implementation, simulating the
synchronous rounds directly on the graph one dict/set operation at a
time; the vectorised lockstep counterparts (both variants as
:class:`~repro.engine.messages.MessageRule` kernels on the fleet/armada
fabric, bit-reproducible and cross-checked against this module in law)
live in :mod:`repro.engine.messages`.

Two standard variants are provided:

- ``permutation`` (Luby 1985 / the random-priority form): each round every
  active vertex draws a uniform value; a vertex whose value beats all active
  neighbours joins the MIS.  Ties cannot occur with real-valued draws (and
  are broken by vertex id for safety).
- ``probability`` (Alon–Babai–Itai 1986 form): each active vertex marks
  itself with probability ``1/(2·deg)``; if two adjacent vertices are
  marked, the one with smaller degree (breaking ties by id) unmarks; marked
  vertices join.

Message accounting: every round, each active vertex sends one value (or
mark bit + degree) to each active neighbour; we charge ``O(log n)`` bits
per numeric message, which is the textbook accounting the paper's
bit-complexity comparison refers to.
"""

from __future__ import annotations

import math
from random import Random
from typing import Dict, Set

from repro.algorithms.base import MISAlgorithm, MISRun
from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.graphs.graph import Graph

_VARIANTS = ("permutation", "probability")


class LubyMIS(MISAlgorithm):
    """Luby's algorithm, in either classic variant."""

    def __init__(self, variant: str = "permutation") -> None:
        if variant not in _VARIANTS:
            raise ValueError(
                f"variant must be one of {_VARIANTS}, got {variant!r}"
            )
        self._variant = variant

    @property
    def name(self) -> str:
        return f"luby-{self._variant}"

    def run(
        self,
        graph: Graph,
        rng: Random,
        faults: FaultModel = NO_FAULTS,
        max_rounds: int = 100_000,
    ) -> MISRun:
        # Luby's message-passing model has no beep channel, so the beep
        # noise/crash knobs of ``faults`` are ignored — but churn is a
        # topology fault and applies here too, under the same contract
        # as the beeping engines: events land at round start, a
        # deterministic resolution pass re-activates eligible uncovered
        # survivors, and repair time counts executed rounds to the next
        # quiescence (``docs/robustness.md``).
        churn = faults.churn_schedule
        has_churn = not churn.is_empty()
        if has_churn:
            graph = churn.universe_graph(graph)
        joiners = (
            {event.vertex for event in churn.join_events()}
            if has_churn
            else set()
        )
        present: Set[int] = set(graph.vertices()) - joiners
        asleep: Set[int] = set()
        active: Set[int] = set(present)
        mis: Set[int] = set()
        event_rounds = churn.event_rounds() if has_churn else ()
        last_event = churn.last_event_round if has_churn else -1
        repair = [-1] * len(event_rounds)
        recovered = True
        rounds = 0
        messages = 0
        bits = 0
        bits_per_value = max(1, math.ceil(math.log2(max(graph.num_vertices, 2))))

        def record_quiescence(
            executed_rounds: int, applied_rounds: int = -1
        ) -> None:
            # Same applied-batch guard as ChurnState.record_quiescence:
            # the end-of-round checkpoint must not resolve an event whose
            # batch has not landed yet.
            if applied_rounds < 0:
                applied_rounds = executed_rounds
            for b, event_round in enumerate(event_rounds):
                if event_round > applied_rounds:
                    break
                if repair[b] == -1:
                    repair[b] = executed_rounds - event_round

        while active or rounds <= last_event:
            if rounds >= max_rounds:
                if has_churn:
                    recovered = False
                    break
                raise RuntimeError(
                    f"Luby simulation exceeded {max_rounds} rounds"
                )
            if has_churn:
                events = churn.events_at(rounds)
                if any(events[kind] for kind in events):
                    for v in events["leave"]:
                        present.discard(v)
                        asleep.discard(v)
                        mis.discard(v)
                        active.discard(v)
                    for v in events["sleep"]:
                        asleep.add(v)
                        mis.discard(v)
                        active.discard(v)
                    for v in events["wake"]:
                        asleep.discard(v)
                    for v in events["join"]:
                        present.add(v)
                    # Resolution: eligible uncovered survivors re-enter
                    # the competition; consumes no randomness.
                    for v in graph.vertices():
                        if (
                            v in present
                            and v not in asleep
                            and v not in active
                            and v not in mis
                            and not any(w in mis for w in graph.neighbors(v))
                        ):
                            active.add(v)
                    if not active:
                        record_quiescence(rounds)
            if self._variant == "permutation":
                joined = self._permutation_round(graph, active, rng)
            else:
                joined = self._probability_round(graph, active, rng)
            # Messages: each active vertex tells each active neighbour its
            # value/mark, then joiners notify neighbours (1 bit each).
            round_messages = sum(
                sum(1 for w in graph.neighbors(v) if w in active)
                for v in active
            )
            messages += round_messages
            bits += round_messages * bits_per_value
            mis.update(joined)
            removed = set(joined)
            for v in joined:
                for w in graph.neighbors(v):
                    if w in active:
                        removed.add(w)
            active -= removed
            rounds += 1
            if has_churn and not active:
                record_quiescence(rounds, applied_rounds=rounds - 1)
        absent = (
            (set(graph.vertices()) - present) | asleep if has_churn else set()
        )
        return MISRun(
            algorithm=self.name,
            graph=graph,
            mis=mis,
            rounds=rounds,
            messages=messages,
            bits=bits,
            absent=absent,
            repair_rounds=tuple(repair),
            recovered=recovered,
        )

    @staticmethod
    def _permutation_round(
        graph: Graph, active: Set[int], rng: Random
    ) -> Set[int]:
        """One round of the random-priority variant."""
        values: Dict[int, float] = {v: rng.random() for v in sorted(active)}
        joined: Set[int] = set()
        for v in active:
            v_key = (values[v], v)
            if all(
                v_key < (values[w], w)
                for w in graph.neighbors(v)
                if w in active
            ):
                joined.add(v)
        return joined

    @staticmethod
    def _probability_round(
        graph: Graph, active: Set[int], rng: Random
    ) -> Set[int]:
        """One round of the marking variant."""
        active_degree: Dict[int, int] = {
            v: sum(1 for w in graph.neighbors(v) if w in active)
            for v in sorted(active)
        }
        marked: Set[int] = set()
        for v in sorted(active):
            degree = active_degree[v]
            probability = 1.0 if degree == 0 else 1.0 / (2.0 * degree)
            if rng.random() < probability:
                marked.add(v)
        # Conflict resolution: of two adjacent marked vertices, the one with
        # the smaller (degree, id) key unmarks.
        joined = set(marked)
        for v in marked:
            for w in graph.neighbors(v):
                if w in marked:
                    if (active_degree[v], v) < (active_degree[w], w):
                        joined.discard(v)
        return joined
