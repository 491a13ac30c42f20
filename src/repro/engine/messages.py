"""Vectorised message-passing engine: Luby & Métivier on the fleet fabric.

The per-node implementations in :mod:`repro.algorithms` (``luby.py``,
``metivier.py``, ``local_minimum.py``) run the paper's message-passing
baselines one Python dict/set operation at a time.  This module lifts
them onto the same lockstep tensor fabric the beeping rules use: a whole
batch of trials advances as ``(trials, n)`` arrays (``(slots, n)`` in the
armada form), one neighbour reduction per round serves every trial, and
all randomness comes from the counter-RNG fabric — every draw is a pure
function of ``(seed, round, draw kind, node)``
(:func:`repro.beeping.rng.counter_values` /
:func:`~repro.beeping.rng.counter_uniforms` on the disjoint
``DRAW_VALUE`` / ``DRAW_MARK`` / ``DRAW_IDS`` domains).  There is no
``"stream"`` mode here: message kernels are counter-only by design, so
batching never has generator state to thread through.

The kernel API
--------------
A :class:`MessageRule` describes one round as a *priority contest*: it
returns per-vertex ``uint64`` keys plus a candidate mask, and a vertex
joins the MIS iff it is a candidate whose key is **strictly smaller**
than every candidate neighbour's key (the masked neighbour-minimum
reduction).  All four baselines fit this shape:

- :class:`LubyPermutationRule` — keys are fresh 64-bit priority values;
  candidates are the active vertices (smallest value wins).
- :class:`MetivierRule` — the same contest, but bits are accounted
  per-edge by common-prefix length, mirroring the bit-by-bit revelation
  of Métivier et al.
- :class:`LubyProbabilityRule` — vertices mark themselves with
  probability ``1/(2·deg)``; candidates are the marked vertices and keys
  order them by *descending* ``(active degree, id)``, so the marked-degree
  compare resolves conflicts exactly as the per-node reference does.
- :class:`LocalMinimumRule` — keys are a per-trial random ID permutation
  drawn once (round 0 of the ``DRAW_IDS`` domain) and reused each round.

Backends
--------
The message armada holds one :class:`~repro.engine.sparse.NeighbourOperand`,
the one place the backend is decided, and asks it for every reduction a
round needs — active-neighbour counts, the masked neighbour minimum and
the neighbour OR that retires joiners' neighbours — over its live rows,
one call each.  On ``"dense"`` the minimum is a blocked full-adjacency
sweep (numpy has no (min, ·) semiring GEMM), on ``"sparse"`` one
``np.minimum.reduceat`` over the padded CSR, ``O(n + m)`` per round.

Both compute the exact minimum of the same ``uint64`` sets, so backend
choice never changes results — the dense/sparse bit-equality contract of
the beeping engines holds here too, as does the fleet/armada one:
slot ``(g, t)`` of a :class:`MessageArmadaSimulator` batch equals trial
``t`` of ``MessageFleetSimulator(graphs[g])`` bit for bit.  The per-node
reference implementations consume randomness differently
(``random.Random``) and agree in law only — same MIS-validity
invariants, matching round-count distributions — which
``tests/engine/test_messages.py`` enforces.

Ties: two adjacent candidates holding the *same* key (probability
``2^-64`` per pair per round for the value-based rules; impossible for
the id-keyed ones) simply both stay active for the next round's fresh
draws, so a tie can delay but never corrupt the output.

Accounting mirrors the per-node reference: each round, every active
vertex sends one value to each active neighbour (``messages``), charged
at :meth:`MessageRule.bits_per_value` bits per message — except Métivier,
whose per-edge charge is one more bit than the endpoints' common value
prefix, both directions (:attr:`MessageRule.prefix_bits`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.beeping.rng import (
    DRAW_IDS,
    DRAW_MARK,
    DRAW_VALUE,
    counter_uniforms,
    counter_values,
)
from repro.engine.simulator import (
    DEFAULT_MAX_ROUNDS,
    armada_width,
    seed_groups,
)
from repro.engine.sparse import KEY_SENTINEL, NeighbourOperand
from repro.graphs.graph import Graph
from repro.graphs.validation import verify_mis_rows
from repro.telemetry import probes

#: Métivier values are full 64-bit strings, like the reference's
#: ``getrandbits(64)``; equal values cost the whole precision.
VALUE_BITS = 64


def _bits_to_separate_u64(xor: np.ndarray) -> np.ndarray:
    """Vectorised :func:`repro.algorithms.metivier._bits_to_separate`.

    ``xor`` holds ``a ^ b`` per compared pair (uint64, any shape); the
    result is the number of bits revealed until the values first differ:
    ``VALUE_BITS - bit_length(xor) + 1``, and the full ``VALUE_BITS`` for
    equal values.  Exact: the float64 ``frexp`` exponent overshoots the
    true bit length by at most one (when the conversion rounds up to the
    next power of two), which one shift test corrects.
    """
    exponent = np.frexp(xor.astype(np.float64))[1].astype(np.int64)
    exponent = np.minimum(exponent, VALUE_BITS)
    shift = np.clip(exponent - 1, 0, 63).astype(np.uint64)
    positive = xor > 0
    overshoot = positive & ((xor >> shift) == 0)
    bit_length = exponent - overshoot
    separated = (VALUE_BITS + 1) - bit_length
    separated[~positive] = VALUE_BITS
    return separated


class MessageRule(ABC):
    """One message-passing MIS algorithm as a per-round priority contest.

    Like :class:`~repro.engine.rules.ProbabilityRule`, a rule is written
    against lockstep batches: every method takes and returns ``(rows, n)``
    arrays, one row per concurrent trial (or armada slot).  All rules are
    trial-parallel by construction — they draw from the stateless counter
    fabric, so rows never share state.

    ``state`` is a per-run scratch dict the engine threads through the
    round loop: rules stash per-run constants (the ID permutation) or
    per-round intermediates the accounting needs (Métivier's values).
    """

    #: Message rules always batch; kept for symmetry with ProbabilityRule.
    trial_parallel = True

    #: True for rules whose bit accounting is per-edge common-prefix
    #: length (Métivier) instead of ``messages * bits_per_value``.
    prefix_bits = False

    @property
    @abstractmethod
    def name(self) -> str:
        """Stable identifier matching the algorithm registry."""

    @abstractmethod
    def bits_per_value(self, num_vertices: int) -> int:
        """Bits charged per exchanged message (ignored when
        :attr:`prefix_bits` is set)."""

    @abstractmethod
    def round_keys(
        self,
        seeds: np.ndarray,
        round_index: int,
        counts: np.ndarray,
        active: np.ndarray,
        state: Dict[str, np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The round's ``(keys, candidates)`` pair.

        ``seeds`` are the per-row uint64 trial seeds, ``counts`` the
        active-neighbour counts and ``active`` the activity mask (both
        ``(rows, n)``).  Returns uint64 ``keys`` and a boolean candidate
        mask (a subset of ``active``); the engine joins every candidate
        whose key is strictly below the masked neighbour minimum.
        """


class LubyPermutationRule(MessageRule):
    """Luby's random-priority variant: smallest fresh value wins."""

    @property
    def name(self) -> str:
        return "luby-permutation"

    def bits_per_value(self, num_vertices: int) -> int:
        # The textbook O(log n) accounting, as in algorithms/luby.py.
        return max(1, (max(num_vertices, 2) - 1).bit_length())

    def round_keys(self, seeds, round_index, counts, active, state):
        values = counter_values(
            seeds, round_index, DRAW_VALUE, active.shape[1]
        )
        state["values"] = values
        return values, active


class MetivierRule(LubyPermutationRule):
    """Métivier et al.: the same contest, bit-by-bit value revelation.

    Joins are identical in law to :class:`LubyPermutationRule` (both are
    the local-minimum-of-fresh-values rule); only the accounting differs
    — per active edge, one more bit than the endpoints' common value
    prefix, charged in both directions.
    """

    prefix_bits = True

    @property
    def name(self) -> str:
        return "metivier"

    def bits_per_value(self, num_vertices: int) -> int:
        return VALUE_BITS


class LubyProbabilityRule(MessageRule):
    """Luby's marking variant: ``1/(2·deg)`` marks, degree-compare ties.

    Among adjacent marked vertices the *larger* ``(active degree, id)``
    key survives — exactly the per-node reference's resolution, where
    the smaller key unmarks.  Keys are flipped (``max - composite``) so
    the shared strictly-smallest-key-wins reduction applies unchanged;
    they are unique per vertex, so the contest never ties.
    """

    @property
    def name(self) -> str:
        return "luby-probability"

    def bits_per_value(self, num_vertices: int) -> int:
        return max(1, (max(num_vertices, 2) - 1).bit_length())

    def round_keys(self, seeds, round_index, counts, active, state):
        n = active.shape[1]
        uniforms = counter_uniforms(seeds, round_index, DRAW_MARK, n)
        # Isolated-in-the-active-graph vertices mark with probability 1.
        probability = np.where(
            counts > 0, 0.5 / np.maximum(counts, 1), 1.0
        )
        marked = active & (uniforms < probability)
        ids = np.arange(n, dtype=np.uint64)
        composite = counts.astype(np.uint64) * np.uint64(n + 1) + ids
        keys = np.uint64((n + 1) * (n + 1)) - composite
        return keys, marked


class LocalMinimumRule(MessageRule):
    """Deterministic local-minimum-ID MIS on a per-trial random ID draw.

    The ID permutation is the rank vector of one ``DRAW_IDS`` uniform row
    drawn at counter round 0 — a uniformly random permutation per trial,
    matching the reference's ``rng.shuffle`` in law — and is fixed for
    the whole run, so every round is the deterministic ID contest.
    """

    @property
    def name(self) -> str:
        return "local-minimum-id"

    def bits_per_value(self, num_vertices: int) -> int:
        return max(1, (num_vertices - 1).bit_length()) if num_vertices > 1 else 1

    def round_keys(self, seeds, round_index, counts, active, state):
        ids = state.get("ids")
        if ids is None:
            n = active.shape[1]
            uniforms = counter_uniforms(seeds, 0, DRAW_IDS, n)
            order = np.argsort(uniforms, axis=1, kind="stable")
            ids = np.empty_like(order)
            rows = np.arange(order.shape[0])[:, np.newaxis]
            ids[rows, order] = np.arange(n, dtype=np.int64)
            ids = ids.astype(np.uint64)
            state["ids"] = ids
        return ids, active


#: The message rules the fleet fabric can run, by registry name.
MESSAGE_RULES = {
    "luby-permutation": LubyPermutationRule,
    "luby-probability": LubyProbabilityRule,
    "metivier": MetivierRule,
    "local-minimum-id": LocalMinimumRule,
}


@dataclass
class MessageFleetRun:
    """Per-trial outcomes of one message-passing fleet simulation.

    Row ``t`` of every array is trial ``t``.  ``messages`` and ``bits``
    carry the reference implementations' accounting (module docstring);
    message algorithms do not beep, so there is no beep tensor.
    """

    rule_name: str
    num_vertices: int
    trials: int
    rounds: np.ndarray
    membership: np.ndarray
    messages: np.ndarray
    bits: np.ndarray

    def mis_set(self, trial: int) -> Set[int]:
        """The MIS selected by one trial."""
        return {int(v) for v in np.flatnonzero(self.membership[trial])}


def _edge_pairs(graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """Each undirected edge of ``graph`` once, as ``(u, v)`` arrays with
    u < v."""
    rows = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), np.diff(graph.indptr)
    )
    columns = graph.indices.astype(np.int64)
    once = rows < columns
    return rows[once], columns[once]


def _prefix_round_bits(
    edges: Tuple[np.ndarray, np.ndarray],
    values: np.ndarray,
    active: np.ndarray,
) -> np.ndarray:
    """Métivier's per-row bit charge for one round on one graph.

    For each edge with both endpoints active, both endpoints send one
    more bit than the common prefix of their 64-bit values.
    """
    edge_u, edge_v = edges
    if edge_u.size == 0:
        return np.zeros(values.shape[0], dtype=np.int64)
    both_active = active[:, edge_u] & active[:, edge_v]
    separated = _bits_to_separate_u64(values[:, edge_u] ^ values[:, edge_v])
    return 2 * (separated * both_active).sum(axis=1)


def _run_message_lockstep(
    rule: MessageRule,
    seeds: np.ndarray,
    sizes: Sequence[int],
    operand: NeighbourOperand,
    graphs: Sequence[Graph],
    max_rounds: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The shared round loop over ``(rows, n)`` lockstep tensors.

    Rows are grouped by graph, ``sizes[g]`` rows of ``graphs[g]``; the
    operand's reductions are block-diagonal by construction, so every row
    evolves exactly as it would in a lone single-graph batch.  Returns
    ``(rounds, membership, messages, bits)``.
    """
    if not isinstance(rule, MessageRule):
        raise TypeError(
            f"need a MessageRule, got {type(rule).__name__!r}; probability "
            "rules run on FleetSimulator/ArmadaSimulator instead"
        )
    total = int(seeds.size)
    n = graphs[0].num_vertices
    slot_graph = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    edges = [_edge_pairs(g) for g in graphs] if rule.prefix_bits else []
    active = np.ones((total, n), dtype=bool)
    membership = np.zeros((total, n), dtype=bool)
    counts = np.zeros((total, n), dtype=np.int64)
    neighbor_min = np.full((total, n), KEY_SENTINEL, dtype=np.uint64)
    retired = np.zeros((total, n), dtype=bool)
    messages = np.zeros(total, dtype=np.int64)
    bits = np.zeros(total, dtype=np.int64)
    rounds = np.zeros(total, dtype=np.int64)
    state: Dict[str, np.ndarray] = {}
    alive = active.any(axis=1)
    round_index = 0
    while alive.any():
        if round_index >= max_rounds:
            raise RuntimeError(
                f"message simulation exceeded {max_rounds} rounds"
            )
        # The reductions touch only the live rows; finished rows keep
        # stale values, which their all-False active mask ignores.
        live = np.flatnonzero(alive)
        live_sizes = np.bincount(slot_graph[live], minlength=len(sizes))
        counts[live] = operand.counts(active[live], live_sizes)
        keys, candidates = rule.round_keys(
            seeds, round_index, counts, active, state
        )
        candidates = candidates & active
        neighbor_min[live] = operand.masked_min(
            keys[live], candidates[live], live_sizes
        )
        joined = candidates & (keys < neighbor_min)
        membership |= joined
        # Accounting happens against the round-start active set, exactly
        # like the per-node references (joins retire vertices only after
        # the round's exchange is charged).
        round_messages = (counts * active).sum(axis=1)
        messages += round_messages
        if rule.prefix_bits:
            for g, graph_edges in enumerate(edges):
                rows = live[slot_graph[live] == g]
                bits[rows] += _prefix_round_bits(
                    graph_edges, state["values"][rows], active[rows]
                )
        else:
            bits += round_messages * rule.bits_per_value(n)
        retired[:] = joined
        retired[live] |= operand.any(joined[live], live_sizes)
        active &= ~retired
        still_alive = active.any(axis=1)
        rounds[alive & ~still_alive] = round_index + 1
        alive = still_alive
        round_index += 1
    if probes.enabled():
        probes.count("engine.message.runs")
        probes.count("engine.message.rounds", round_index)
        probes.count("engine.message.trials", total)
        probes.count(f"engine.backend.{operand.backend}")
    return rounds, membership, messages, bits


class MessageFleetSimulator:
    """All trials of one message-passing rule on one graph, in lockstep.

    The one-graph :class:`MessageArmadaSimulator` (the message-passing
    sibling of :class:`~repro.engine.fleet.FleetSimulator`): ``run_fleet``
    advances a ``(trials, n)`` batch through the armada's loop.  Counter
    rng mode only (module docstring); trial ``t`` is a pure function of
    ``seeds[t]``, so any sub-batch — including a one-trial "loop" over
    the same seeds — reproduces the matching rows bit for bit.
    """

    def __init__(self, graph: Graph, backend: str = "auto") -> None:
        self._graph = graph
        self._armada = MessageArmadaSimulator(
            [graph], DEFAULT_MAX_ROUNDS, backend
        )

    @property
    def graph(self) -> Graph:
        """The simulated graph."""
        return self._graph

    @property
    def backend(self) -> str:
        """The resolved backend, ``"dense"`` or ``"sparse"``."""
        return self._armada.backend

    def run_fleet(
        self, rule: MessageRule, seeds: Sequence[int]
    ) -> MessageFleetRun:
        """Simulate one independent trial per seed, all in lockstep (each
        verified, as in :meth:`MessageArmadaSimulator.run_armada`)."""
        return self._armada.run_armada(rule, [seeds])[0]


class MessageArmadaSimulator:
    """One lockstep round-loop for several same-``n`` graphs at once.

    The message-passing sibling of
    :class:`~repro.engine.fleet.ArmadaSimulator`: every ``(graph, trial)``
    pair becomes one slot row of a ``(slots, n)`` batch (rows grouped per
    graph), the round loop runs once for the whole cell, and the
    operand's reductions stay block-diagonal — each graph's adjacency
    serves its own row block — so slot ``(g, t)`` is bit-identical to
    trial ``t`` of
    ``MessageFleetSimulator(graphs[g]).run_fleet(rule, seed_rows[g])``.
    """

    def __init__(
        self,
        graphs: Sequence[Graph],
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        backend: str = "auto",
    ) -> None:
        self._n = armada_width(graphs, max_rounds)
        self._graphs = list(graphs)
        self._max_rounds = max_rounds
        self._operand = NeighbourOperand(self._graphs, backend)

    @property
    def graphs(self) -> Sequence[Graph]:
        """The stacked graphs, in slot order."""
        return tuple(self._graphs)

    @property
    def backend(self) -> str:
        """The resolved backend, ``"dense"`` or ``"sparse"``."""
        return self._operand.backend

    def run_armada(
        self, rule: MessageRule, seed_rows: Sequence[Sequence[int]]
    ) -> List[MessageFleetRun]:
        """Run every graph's trial group in one lockstep batch.

        ``seed_rows[g]`` holds graph ``g``'s trial seeds (rows may have
        different lengths).  Returns one :class:`MessageFleetRun` per
        graph.  Every trial is verified as an MIS; a failing one raises
        :class:`~repro.graphs.validation.MISValidationError`.
        """
        groups = seed_groups(seed_rows, len(self._graphs))
        sizes = [int(group.size) for group in groups]
        seeds = np.concatenate(groups)
        rounds, membership, messages, bits = _run_message_lockstep(
            rule, seeds, sizes, self._operand, self._graphs, self._max_rounds
        )
        runs: List[MessageFleetRun] = []
        offset = 0
        for size, graph in zip(sizes, self._graphs):
            block = slice(offset, offset + size)
            offset += size
            run = MessageFleetRun(
                rule_name=rule.name,
                num_vertices=self._n,
                trials=size,
                rounds=rounds[block].copy(),
                membership=membership[block].copy(),
                messages=messages[block].copy(),
                bits=bits[block].copy(),
            )
            verify_mis_rows(graph, run.membership)
            runs.append(run)
        return runs
