"""Fault models for robustness experiments.

The paper argues (Section 6) that the feedback algorithm is "highly robust".
To test that claim beyond the clean model, the channel supports three kinds
of injected faults:

- **beep loss** — each transmitted beep is dropped independently on each
  receiving edge with probability ``beep_loss_probability`` (an unreliable
  radio link);
- **spurious beeps** — each listening node hears a phantom beep with
  probability ``spurious_beep_probability`` (background noise);
- **crashes** — a :class:`CrashSchedule` removes nodes at fixed rounds
  (fail-stop processes);
- **churn** — a :class:`ChurnSchedule` changes the node population at
  fixed rounds: nodes *leave* permanently, *sleep* and later *wake*, or
  *join* fresh with a declared neighbour list.  Unlike crashes, churn
  triggers *self-repair*: uncovered survivors re-enter the competition,
  so the run re-converges to a valid MIS of the surviving subgraph.

Faults only perturb the *first* exchange (the probability feedback); the
second exchange (join/retire notifications) stays reliable so that the
output remains a well-defined independent set — exactly the separation the
paper's robustness discussion assumes, since only the feedback path is
claimed to tolerate noise.

Two equivalent samplings of beep loss
-------------------------------------
The per-node reference engine (:class:`~repro.beeping.channel.BeepChannel`)
drops each *edge delivery* independently: listener ``v`` with ``k`` beeping
neighbours hears iff at least one of ``k`` Bernoulli(1 - q) deliveries
survives.  The vectorised engines sample the same law with a single
per-node uniform against the collapsed probability ``1 - q**k`` (``k`` is
the beeping-neighbour count the engines already compute).  The two are
identical in distribution — per listener, per round, independently — but
consume randomness differently, so the reference engine agrees with the
vectorised engines *in law* while the vectorised engines agree with each
other *bit for bit* (see ``docs/robustness.md`` for the full contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Set, Tuple


@dataclass(frozen=True)
class CrashSchedule:
    """Fail-stop crashes: vertex ``v`` crashes at the start of round ``r``.

    Crashed nodes never beep, never join the MIS and do not count as
    uncovered for termination purposes (they have left the system).
    """

    crashes: Mapping[int, FrozenSet[int]] = field(default_factory=dict)

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[int, int]]) -> "CrashSchedule":
        """Build from ``(round, vertex)`` pairs."""
        by_round: Dict[int, Set[int]] = {}
        for round_index, vertex in pairs:
            if round_index < 0:
                raise ValueError(f"round must be >= 0, got {round_index}")
            if vertex < 0:
                # A negative id would silently vanish from the vectorised
                # engines' round_masks while the reference scheduler would
                # happily index with it — reject it for every engine.
                raise ValueError(f"vertex must be >= 0, got {vertex}")
            by_round.setdefault(round_index, set()).add(vertex)
        return CrashSchedule(
            {r: frozenset(vs) for r, vs in by_round.items()}
        )

    def crashed_at(self, round_index: int) -> FrozenSet[int]:
        """Vertices that crash at the start of the given round."""
        return self.crashes.get(round_index, frozenset())

    def is_empty(self) -> bool:
        """Whether the schedule contains no crashes at all."""
        return not self.crashes

    def round_masks(self, num_vertices: int) -> Dict[int, "object"]:
        """Per-round boolean crash masks for the vectorised engines.

        Maps each scheduled round to a length-``num_vertices`` boolean
        numpy array that is ``True`` on the vertices crashing at the start
        of that round.  Scheduled vertices outside ``0..num_vertices-1``
        are ignored, mirroring the reference scheduler's ``v in graph``
        guard.  Rounds whose vertices all fall outside the graph are
        omitted.  (numpy is imported lazily so the reference engine stays
        stdlib-only.)
        """
        import numpy as np

        masks: Dict[int, "object"] = {}
        for round_index, vertices in self.crashes.items():
            in_range = [v for v in vertices if 0 <= v < num_vertices]
            if not in_range:
                continue
            mask = np.zeros(num_vertices, dtype=bool)
            mask[in_range] = True
            masks[round_index] = mask
        return masks


#: The churn event kinds, in their round-start application order.
CHURN_KINDS = ("leave", "sleep", "wake", "join")

_KIND_ORDER = {kind: index for index, kind in enumerate(CHURN_KINDS)}


@dataclass(frozen=True)
class ChurnEvent:
    """One population change at the start of one round.

    - ``leave`` — the vertex departs permanently (any state);
    - ``sleep`` — the vertex suspends: it drops out of the MIS and the
      competition until a later ``wake``;
    - ``wake`` — a sleeping vertex re-enters with fresh state;
    - ``join`` — a fresh vertex attaches with the declared ``neighbors``
      (ids in the *universe* graph, see
      :meth:`ChurnSchedule.universe_graph`) and enters with fresh state.

    Joiners and wakers listen first: if a current MIS neighbour covers
    them on entry they retire immediately, so the output stays an
    independent set by construction.
    """

    kind: str
    round_index: int
    vertex: int
    neighbors: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise ValueError(
                f"churn kind must be one of {CHURN_KINDS}, got {self.kind!r}"
            )
        if self.round_index < 0:
            raise ValueError(f"round must be >= 0, got {self.round_index}")
        if self.vertex < 0:
            raise ValueError(f"vertex must be >= 0, got {self.vertex}")
        if self.kind != "join" and self.neighbors:
            raise ValueError(
                f"{self.kind!r} events carry no neighbour list, got "
                f"{self.neighbors}"
            )
        canonical = tuple(sorted({int(w) for w in self.neighbors}))
        for w in canonical:
            if w < 0:
                raise ValueError(f"join neighbour must be >= 0, got {w}")
            if w == self.vertex:
                raise ValueError(
                    f"join vertex {self.vertex} cannot neighbour itself"
                )
        object.__setattr__(self, "neighbors", canonical)

    def to_tuple(self) -> Tuple:
        """Canonical tuple form (what :class:`CellSpec.churn` stores)."""
        if self.kind == "join":
            return (self.kind, self.round_index, self.vertex, self.neighbors)
        return (self.kind, self.round_index, self.vertex)


@dataclass(frozen=True)
class ChurnSchedule:
    """Per-round population changes, validated as one coherent timeline.

    Construction (via :meth:`from_events`) enforces:

    - at most one event per ``(round, vertex)`` pair;
    - per vertex: an optional ``join`` first, then ``sleep``/``wake``
      strictly alternating starting with ``sleep``, then an optional
      ``leave`` last;
    - join vertices are pairwise distinct (one birth per id).

    Join ids must form the contiguous block just above the base graph —
    :meth:`universe_graph` checks that against the concrete base graph.
    """

    events: Tuple[ChurnEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(
                self.events,
                key=lambda e: (e.round_index, _KIND_ORDER[e.kind], e.vertex),
            )
        )
        object.__setattr__(self, "events", ordered)
        self._validate_timeline()

    def _validate_timeline(self) -> None:
        seen: Set[Tuple[int, int]] = set()
        by_vertex: Dict[int, list] = {}
        for event in self.events:
            key = (event.round_index, event.vertex)
            if key in seen:
                raise ValueError(
                    f"vertex {event.vertex} has two churn events in round "
                    f"{event.round_index}"
                )
            seen.add(key)
            by_vertex.setdefault(event.vertex, []).append(event)
        for vertex, timeline in by_vertex.items():
            kinds = [event.kind for event in timeline]
            if kinds.count("join") > 1:
                raise ValueError(f"vertex {vertex} joins more than once")
            if "join" in kinds and kinds[0] != "join":
                raise ValueError(
                    f"vertex {vertex} has events before its join round"
                )
            if kinds.count("leave") > 1:
                raise ValueError(f"vertex {vertex} leaves more than once")
            if "leave" in kinds and kinds[-1] != "leave":
                raise ValueError(
                    f"vertex {vertex} has events after its leave round"
                )
            toggles = [k for k in kinds if k in ("sleep", "wake")]
            expected = "sleep"
            for kind in toggles:
                if kind != expected:
                    raise ValueError(
                        f"vertex {vertex} has a {kind!r} without a "
                        f"preceding {'sleep' if kind == 'wake' else 'wake'}"
                    )
                expected = "wake" if expected == "sleep" else "sleep"

    @staticmethod
    def from_events(events: Iterable) -> "ChurnSchedule":
        """Build from :class:`ChurnEvent` instances or canonical tuples."""
        parsed = []
        for event in events:
            if isinstance(event, ChurnEvent):
                parsed.append(event)
                continue
            kind = event[0]
            neighbors = tuple(event[3]) if len(event) > 3 else ()
            parsed.append(
                ChurnEvent(
                    kind=str(kind),
                    round_index=int(event[1]),
                    vertex=int(event[2]),
                    neighbors=neighbors,
                )
            )
        return ChurnSchedule(tuple(parsed))

    def is_empty(self) -> bool:
        """Whether the schedule contains no events at all."""
        return not self.events

    def to_tuples(self) -> Tuple[Tuple, ...]:
        """Canonical tuple-of-tuples form (spec hashing, CLI round trips)."""
        return tuple(event.to_tuple() for event in self.events)

    def event_rounds(self) -> Tuple[int, ...]:
        """The distinct event rounds, ascending."""
        return tuple(sorted({event.round_index for event in self.events}))

    @property
    def last_event_round(self) -> int:
        """The latest event round, or ``-1`` for an empty schedule."""
        rounds = self.event_rounds()
        return rounds[-1] if rounds else -1

    def join_events(self) -> Tuple[ChurnEvent, ...]:
        """The join events, ordered by vertex id."""
        return tuple(
            sorted(
                (e for e in self.events if e.kind == "join"),
                key=lambda e: e.vertex,
            )
        )

    def events_at(self, round_index: int) -> Dict[str, FrozenSet[int]]:
        """The vertices of each kind scheduled at one round."""
        grouped: Dict[str, Set[int]] = {kind: set() for kind in CHURN_KINDS}
        for event in self.events:
            if event.round_index == round_index:
                grouped[event.kind].add(event.vertex)
        return {kind: frozenset(vs) for kind, vs in grouped.items()}

    def universe_graph(self, base: "object") -> "object":
        """The base graph plus every joiner and its declared edges.

        Join ids must form exactly the contiguous block
        ``base.num_vertices .. base.num_vertices + J - 1``, so universe
        indices are stable and every engine can pre-size its tensors.
        Neighbour ids may reference any universe vertex (base or
        joiner).  Returns a :class:`~repro.graphs.graph.Graph`.
        """
        from repro.graphs.graph import Graph

        joins = self.join_events()
        n_base = base.num_vertices
        expected = list(range(n_base, n_base + len(joins)))
        got = [event.vertex for event in joins]
        if got != expected:
            raise ValueError(
                f"join ids must be the contiguous block {expected} above "
                f"the {n_base}-vertex base graph, got {got}"
            )
        n_universe = n_base + len(joins)
        for event in self.events:
            if event.kind != "join" and event.vertex >= n_universe:
                raise ValueError(
                    f"{event.kind} event targets vertex {event.vertex}, "
                    f"outside the {n_universe}-vertex universe"
                )
        edges = list(base.edges())
        edge_set = {tuple(sorted(edge)) for edge in edges}
        for event in joins:
            for w in event.neighbors:
                if w >= n_universe:
                    raise ValueError(
                        f"join vertex {event.vertex} declares neighbour "
                        f"{w}, outside the {n_universe}-vertex universe"
                    )
                edge = tuple(sorted((event.vertex, w)))
                if edge not in edge_set:
                    edge_set.add(edge)
                    edges.append(edge)
        return Graph(n_universe, edges)

    def round_masks(self, num_vertices: int) -> Dict[int, Dict[str, "object"]]:
        """Per-round boolean event masks for the vectorised engines.

        Maps each event round to ``{kind: bool mask}`` over the
        ``num_vertices``-vertex *universe*; every scheduled vertex must
        fit (churn events are explicit structure, unlike crash ids which
        mirror the reference scheduler's silent ``v in graph`` guard).
        """
        import numpy as np

        masks: Dict[int, Dict[str, "object"]] = {}
        for event in self.events:
            if event.vertex >= num_vertices:
                raise ValueError(
                    f"churn event targets vertex {event.vertex}, outside "
                    f"the {num_vertices}-vertex universe"
                )
            per_round = masks.setdefault(
                event.round_index,
                {
                    kind: np.zeros(num_vertices, dtype=bool)
                    for kind in CHURN_KINDS
                },
            )
            per_round[event.kind][event.vertex] = True
        return masks


def parse_crash_spec(entries: Iterable[str]) -> Tuple[Tuple[int, int], ...]:
    """Parse ``ROUND:VERTEX`` CLI entries into ``(round, vertex)`` pairs.

    Raises ``ValueError`` with the offending entry spelled out — the CLI
    maps that to a clean ``SystemExit`` instead of a bare traceback.
    """
    pairs = []
    for entry in entries:
        parts = entry.split(":")
        if len(parts) != 2:
            raise ValueError(
                f"crash spec must look like ROUND:VERTEX, got {entry!r}"
            )
        try:
            round_index, vertex = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"crash spec needs integer ROUND:VERTEX, got {entry!r}"
            ) from None
        if round_index < 0 or vertex < 0:
            raise ValueError(
                f"crash spec needs ROUND >= 0 and VERTEX >= 0, got {entry!r}"
            )
        pairs.append((round_index, vertex))
    return tuple(pairs)


def parse_churn_spec(entries: Iterable[str]) -> Tuple[Tuple, ...]:
    """Parse churn CLI entries into canonical event tuples.

    The grammar is ``leave:R:V``, ``sleep:R:V``, ``wake:R:V`` and
    ``join:R:V:N1+N2+...`` (a joiner may declare no neighbours with a
    trailing empty list: ``join:R:V:``).  Returns
    :meth:`ChurnSchedule.to_tuples`-style tuples, already validated as a
    coherent timeline; raises ``ValueError`` with a clear message on any
    malformed entry.
    """
    events = []
    for entry in entries:
        parts = entry.split(":")
        kind = parts[0]
        if kind not in CHURN_KINDS:
            raise ValueError(
                f"churn spec must start with one of {CHURN_KINDS}, "
                f"got {entry!r}"
            )
        expected = 4 if kind == "join" else 3
        if len(parts) != expected:
            shape = "join:ROUND:VERTEX:N1+N2+..." if kind == "join" else (
                f"{kind}:ROUND:VERTEX"
            )
            raise ValueError(f"churn spec must look like {shape}, got {entry!r}")
        try:
            round_index, vertex = int(parts[1]), int(parts[2])
            neighbors = tuple(
                int(w) for w in parts[3].split("+") if w != ""
            ) if kind == "join" else ()
        except ValueError:
            raise ValueError(
                f"churn spec needs integer ROUND, VERTEX and neighbours, "
                f"got {entry!r}"
            ) from None
        events.append(ChurnEvent(kind, round_index, vertex, neighbors))
    return ChurnSchedule(tuple(events)).to_tuples()


@dataclass(frozen=True)
class FaultModel:
    """Channel and node fault parameters for one simulation.

    The default-constructed model is fault-free; use :data:`NO_FAULTS` for
    the common case.
    """

    beep_loss_probability: float = 0.0
    spurious_beep_probability: float = 0.0
    crash_schedule: CrashSchedule = field(default_factory=CrashSchedule)
    churn_schedule: ChurnSchedule = field(default_factory=ChurnSchedule)

    def __post_init__(self) -> None:
        for name in ("beep_loss_probability", "spurious_beep_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def is_fault_free(self) -> bool:
        """Whether this model injects no faults at all."""
        return (
            self.beep_loss_probability == 0.0
            and self.spurious_beep_probability == 0.0
            and self.crash_schedule.is_empty()
            and self.churn_schedule.is_empty()
        )


NO_FAULTS = FaultModel()
