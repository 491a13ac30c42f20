"""Shared pieces of the vectorised engines' round semantics.

Every fast engine runs the same two-exchange semantics as
:class:`repro.beeping.BeepingSimulation`, expressed as boolean linear
algebra:

- ``beep = active & (U < p)`` with ``U`` a fresh uniform row per trial;
- ``heard``: the neighbour-OR of ``beep``;
- ``joined = beep & ~heard``; neighbours of joiners retire.

The probability-rule round loop lives in :mod:`repro.engine.fleet` (the
armada's lockstep loop; the fleet is the one-graph armada and one trial
the one-seed fleet run); this module holds what the engines share: the
one-trial result type :class:`EngineRun`, the noisy observation
:func:`faulty_observation`, the churn bookkeeping
:class:`ChurnState`, the ``rng_mode`` check and the armadas' argument
checks (:func:`armada_width`, :func:`seed_groups`).

Randomness comes in two modes (``rng_mode``, see
:data:`repro.beeping.rng.RNG_MODES`), and the cross-backend
bit-reproducibility contract holds *within each mode*:

- ``"stream"`` (the default of ``FleetSimulator.run_fleet`` and
  ``run_batch``): one sequential ``numpy`` generator per seed.  The
  per-round draw order — beep uniforms, then loss uniforms, then
  spurious uniforms, each a full ``rng.random(n)`` and only when the
  corresponding probability is non-zero — is the shared contract that
  keeps every backend bit-for-bit identical under one seed
  (``docs/robustness.md``).
- ``"counter"`` (the default of ``ArmadaSimulator.run_armada``,
  ``run_rule_armada``, ``run_fleet_trials`` and sweep cells): every
  uniform is a pure function of ``(seed, round, draw kind, node)`` via
  :func:`repro.beeping.rng.counter_uniforms` — no stream state at all,
  so draw *order* is irrelevant by construction.

The per-node reference engine consumes randomness differently and agrees
in law only; use it when a robustness experiment needs traces or per-node
instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

import numpy as np

from repro.beeping.rng import RNG_MODES, seed_array

DEFAULT_MAX_ROUNDS = 100_000


def check_rng_mode(rng_mode: str) -> None:
    """Raise unless ``rng_mode`` names a supported discipline."""
    if rng_mode not in RNG_MODES:
        raise ValueError(
            f"rng_mode must be one of {RNG_MODES}, got {rng_mode!r}"
        )


def armada_width(graphs: Sequence, max_rounds: int) -> int:
    """The one vertex count of an armada's graphs, which the
    block-diagonal ``(slots, n)`` stack needs them to share."""
    if not graphs:
        raise ValueError("need at least one graph")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    n = graphs[0].num_vertices
    for graph in graphs:
        if graph.num_vertices != n:
            raise ValueError(
                "armada graphs must share one vertex count, got "
                f"{n} and {graph.num_vertices}"
            )
    return n


def seed_groups(
    seed_rows: Sequence[Sequence[int]], num_graphs: int
) -> List[np.ndarray]:
    """An armada's ``seed_rows`` as one non-empty seed array per graph."""
    if len(seed_rows) != num_graphs:
        raise ValueError(
            f"need one seed row per graph, got {len(seed_rows)} rows "
            f"for {num_graphs} graphs"
        )
    groups = [seed_array(row) for row in seed_rows]
    if min(group.size for group in groups) < 1:
        raise ValueError("every graph needs at least one seed")
    return groups


def faulty_observation(
    counts: np.ndarray,
    loss: float,
    spurious: float,
    loss_uniforms: Optional[np.ndarray],
    spurious_uniforms: Optional[np.ndarray],
) -> np.ndarray:
    """The noisy ``heard`` booleans from beeping-neighbour counts.

    Elementwise over any shape: the lockstep loop passes ``(slots, n)``
    matrices, whichever backend produced the counts (GEMM or CSR).  A
    listener with ``k`` beeping neighbours hears iff its loss uniform falls below ``1 - loss**k`` (at least one
    of ``k`` independent deliveries survives), then spurious uniforms
    add phantom beeps.  Every engine funnels through this one function
    so the collapsed-probability arithmetic — and therefore the
    bit-reproducibility contract — cannot drift between them.
    """
    counts = counts.astype(np.int64, copy=False)
    heard = counts > 0
    if loss > 0.0:
        heard = loss_uniforms < 1.0 - np.power(loss, counts)
    if spurious > 0.0:
        heard = heard | (spurious_uniforms < spurious)
    return heard


@dataclass
class EngineRun:
    """The outcome of one trial (``FleetRun.trial_run``).

    ``crashed`` is empty unless the run's fault model scheduled crashes;
    crashed vertices are never in ``mis`` and are exempt from maximality.

    Under churn, ``num_vertices`` counts the *universe* graph (base plus
    joiners), ``absent`` holds the universe vertices outside the final
    alive subgraph (departed, asleep at the end, or never joined),
    ``repair_rounds`` has one entry per distinct event round — executed
    rounds from that churn batch until the MIS invariant over alive nodes
    was restored (``-1`` if the round cap hit first) — and ``recovered``
    is ``False`` exactly when the cap interrupted an unfinished repair.
    """

    rule_name: str
    num_vertices: int
    rounds: int
    mis: Set[int]
    beeps_by_node: np.ndarray
    crashed: Set[int] = field(default_factory=set)
    absent: Set[int] = field(default_factory=set)
    repair_rounds: tuple = ()
    recovered: bool = True

    @property
    def mean_beeps_per_node(self) -> float:
        """Mean beeps per node (the Figure 5 quantity)."""
        if self.num_vertices == 0:
            return 0.0
        return float(self.beeps_by_node.sum()) / self.num_vertices


class ChurnState:
    """Shared churn bookkeeping for the vectorised engines.

    Holds the per-round event masks plus the ``present``/``asleep``
    population masks, applies each round's batch in the canonical order
    (leaves → sleeps → wakes → joins → one deterministic resolution
    pass), and tracks per-event repair times.  State arrays are shaped
    like the engine's ``(trials, n)`` ``active`` mask, with the per-round
    event masks broadcasting over the trailing vertex axis.

    The resolution pass consumes **no randomness**: entrants listen
    first (``covered`` is the neighbour-OR of the updated membership),
    covered entrants retire on the spot, and every eligible uncovered
    survivor re-enters the competition with fresh rule state.  That
    keeps the one-draw-order contract intact — churn runs stay
    bit-identical across the fleet backends and the armada in both rng
    modes.
    """

    def __init__(self, schedule, num_vertices: int, shape) -> None:
        self.schedule = schedule
        self.num_vertices = num_vertices
        self.masks = schedule.round_masks(num_vertices)
        self.event_rounds = schedule.event_rounds()
        self.last_event_round = schedule.last_event_round
        self.present = np.ones(shape, dtype=bool)
        for event in schedule.join_events():
            self.present[..., event.vertex] = False
        self.asleep = np.zeros(shape, dtype=bool)
        self.repair = np.full(
            shape[:-1] + (len(self.event_rounds),), -1, dtype=np.int64
        )

    def initial_active(self) -> np.ndarray:
        """The round-0 active mask (present, awake base vertices)."""
        return self.present.copy()

    def apply_events(
        self,
        round_index: int,
        active: np.ndarray,
        in_mis: np.ndarray,
        crashed: np.ndarray,
        neighbor_or,
        probabilities: np.ndarray,
        initial_row: np.ndarray,
    ) -> bool:
        """Apply one round's churn batch in place; True if it existed.

        ``neighbor_or`` maps a membership mask to its neighbour-OR (the
        engine's own reduction, so each backend keeps its kernel);
        ``initial_row`` is the rule's fresh length-n probability vector,
        copied onto revived entries of ``probabilities``.
        """
        events = self.masks.get(round_index)
        if events is None:
            return False
        leave, sleep = events["leave"], events["sleep"]
        wake, join = events["wake"], events["join"]
        gone = leave | sleep
        self.present &= ~leave
        self.asleep |= sleep
        self.asleep &= ~leave
        self.asleep &= ~wake
        self.present |= join
        in_mis &= ~gone
        active &= ~gone
        covered = neighbor_or(in_mis)
        revive = (
            self.present
            & ~self.asleep
            & ~active
            & ~in_mis
            & ~crashed
            & ~covered
        )
        active |= revive
        np.copyto(probabilities, initial_row, where=revive)
        return True

    def record_quiescence(
        self, executed_rounds: int, quiet, applied_rounds: int = -1
    ) -> None:
        """Resolve pending repairs at a checkpoint with no active nodes.

        ``executed_rounds`` counts rounds fully executed so far (equal to
        the round index right after a batch application, one more at the
        end of a round); ``quiet`` is a per-trial boolean vector marking
        rows whose active set is empty.  A pending event's repair time is
        the executed-rounds count at its first quiet checkpoint minus its
        event round.

        ``applied_rounds`` is the highest round index whose churn batch
        has already been applied at this checkpoint (defaults to
        ``executed_rounds``).  The end-of-round checkpoint after round
        ``r`` has ``executed_rounds = r + 1`` but ``applied_rounds = r``:
        an event scheduled for round ``r + 1`` is still pending — its
        batch has not landed — and must not be resolved with repair 0.
        """
        if applied_rounds < 0:
            applied_rounds = executed_rounds
        for b, event_round in enumerate(self.event_rounds):
            if event_round > applied_rounds:
                break
            pending = (self.repair[:, b] == -1) & quiet
            self.repair[pending, b] = executed_rounds - event_round

    def absent_mask(self) -> np.ndarray:
        """Universe vertices outside the final alive subgraph."""
        return ~self.present | self.asleep
