"""Frozen, hashable descriptions of experiment sweeps.

A sweep is a grid of *cells*; a cell is one (algorithm, graph family,
size, trials, master seed, fault model) point executed either on the
trial-parallel fleet engine or on the per-node reference engine.  Cells
split into *shards* — contiguous global-trial windows — and every shard
has a stable content hash over exactly the fields that determine its
:class:`~repro.experiments.runner.TrialOutcome` rows.  That hash is the
key of the on-disk result store (:mod:`repro.sweep.store`); two shards
with equal hashes are guaranteed to produce identical rows, so cached
rows can be substituted for execution.

What goes into the hash
-----------------------
- the spec format version (bump :data:`SPEC_FORMAT_VERSION` on any change
  to seed derivation or row semantics — it invalidates every old entry);
- the cell's execution fingerprint: algorithm, engine, graph family and
  its parameters, master seed, fault model, ``max_rounds``.
  For **fleet** cells it also includes ``(trials, graphs)`` because the
  per-graph grouping (and hence every seed path) depends on them, and
  ``rng_mode`` because the stream and counter disciplines draw different
  uniforms; for **reference** cells the total trial count is *excluded*
  — trial ``t`` depends only on ``master_seed`` and ``t``, so extending
  a sweep from 100 to 200 trials reuses every stored shard of the first
  100 — and so is ``rng_mode``, which the per-node engine ignores;
- the shard's global trial window ``[lo, hi)``.

Deliberately **not** in the hash: job count, shard width of *other*
shards, store paths, timestamps, ``validate`` (it can only raise, never
alter a row), ``backend`` (dense and sparse kernels compute
identical rows — the conformance suite enforces it, so a warm cache is
shared across backends) — anything that cannot change the rows.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple, Union

from repro.algorithms.registry import available_algorithms
from repro.beeping.faults import ChurnSchedule, CrashSchedule, FaultModel
from repro.engine.applications import APPLICATION_RULES, ApplicationRule
from repro.engine.batch import check_fleet_run
from repro.engine.messages import MESSAGE_RULES, MessageRule
from repro.engine.rules import FeedbackRule, ProbabilityRule, SweepRule
from repro.engine.simulator import check_rng_mode
from repro.engine.sparse import BACKENDS
from repro.experiments.runner import KeyedGraphFactory
from repro.graphs.cliques import theorem1_family
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import grid_graph

#: Bump to invalidate every stored shard (seed or row semantics changed).
#: v2: fleet cells grew an ``rng_mode`` (defaulting to the new counter
#: discipline), so v1 fleet rows — all stream-mode — must not be served
#: for v2 keys.  The application kernels (``mis-*``) did NOT need a bump:
#: they are new algorithm names, so their shards hash to fresh keys on
#: their own, and no pre-existing fingerprint changed.
#: v3: rows grew the churn self-repair columns (``repair_rounds``,
#: ``recovered``) and every fingerprint a ``churn`` entry; v2 rows never
#: carry repair data, so they must not be served for v3 keys even though
#: churn-free numeric columns are unchanged.
SPEC_FORMAT_VERSION = 3

ENGINES = ("fleet", "reference")
#: Graph families a cell can name.  ``theorem1`` is the paper's
#: disjoint-clique lower-bound family (``copies`` copies of ``K_d`` for
#: ``d = 1..side``); it joined in v3 *without* a format bump — its
#: fingerprint fields (``side``, ``copies``) only appear under the new
#: family value, so no pre-existing key changed.
FAMILIES = ("gnp", "grid", "theorem1")

#: Rules the fleet engines can run by name: the trial-parallel beeping
#: probability rules, the message-passing kernels, and the MIS
#: application kernels (factories producing
#: :class:`~repro.engine.messages.MessageRule` /
#: :class:`~repro.engine.applications.ApplicationRule` instances —
#: :func:`~repro.engine.batch.run_rule_armada` dispatches on the rule
#: type, and :func:`~repro.engine.batch.check_fleet_run` decides which
#: rng modes and fault models each accepts).
FLEET_RULES: Dict[
    str, Callable[[], Union[ApplicationRule, MessageRule, ProbabilityRule]]
] = {
    "feedback": FeedbackRule,
    "afek-sweep": SweepRule,
    **MESSAGE_RULES,
    **APPLICATION_RULES,
}

#: Registry algorithms that honour churn schedules on the reference
#: engine: the beeping-scheduler algorithms plus the Luby baselines.
#: The rest (Métivier, local-minimum-id, the greedy baselines) ignore
#: the fault model entirely, so a churn cell naming one of them would
#: silently compute an MIS of the wrong graph — rejected instead.
CHURN_REFERENCE_ALGORITHMS = frozenset(
    {
        "feedback",
        "afek-sweep",
        "afek-global",
        "luby-permutation",
        "luby-probability",
    }
)


def churn_to_json(churn: Tuple[Tuple[Any, ...], ...]) -> List[List[Any]]:
    """Churn event tuples as JSON-safe nested lists."""
    return [
        [event[0], event[1], event[2], list(event[3])]
        if len(event) == 4
        else [event[0], event[1], event[2]]
        for event in churn
    ]


def churn_from_json(payload: Any) -> Tuple[Tuple[Any, ...], ...]:
    """Inverse of :func:`churn_to_json` (tolerates tuple input)."""
    events = []
    for event in payload:
        kind, round_index, vertex = event[0], int(event[1]), int(event[2])
        if len(event) == 4:
            events.append(
                (kind, round_index, vertex,
                 tuple(int(w) for w in event[3]))
            )
        else:
            events.append((kind, round_index, vertex))
    return tuple(events)


def canonical_json(payload: Any) -> str:
    """The one canonical serialisation hashes are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CellSpec:
    """One grid cell: an algorithm on a graph family at one size.

    ``family="gnp"`` draws ``G(n, edge_probability)``; ``family="grid"``
    uses a fixed ``rows × cols`` grid (the rng is ignored);
    ``family="theorem1"`` uses the paper's lower-bound construction —
    ``copies`` copies of ``K_d`` for ``d = 1..side`` (``copies=0`` means
    ``side``, the paper's choice) — also deterministic.  ``engine``
    selects execution semantics:

    - ``"fleet"`` — :func:`repro.experiments.runner.run_fleet_trials`:
      ``trials`` spread over ``graphs`` lockstep groups, ``algorithm``
      names a :data:`FLEET_RULES` entry — a beeping probability rule,
      one of the message-passing kernels (the Luby variants, Métivier,
      local-minimum-id), or one of the MIS application kernels
      (``mis-*`` colouring, matching, dominating and ruling-set
      reductions, whose ``mis_size`` column carries the application's
      output size).  Every width of the cell's graphs runs as one
      block-diagonal armada batch.  ``rng_mode`` picks the uniform
      discipline: ``"counter"`` (default) or ``"stream"``, the
      sequential generators whose bytes the golden traces pin.  Message
      and application algorithms are counter-only and fault-free
      (:func:`~repro.engine.batch.check_fleet_run`).
    - ``"reference"`` — :func:`repro.experiments.runner.run_trials`: a
      fresh graph per trial, ``algorithm`` names a registry algorithm.
      The per-node engine has its own ``random.Random`` discipline and
      ignores ``rng_mode``.

    Both engines support the fault fields (``beep_loss``,
    ``spurious_beep``, ``crashes``, ``churn``) — fleet cells inject
    them as vectorised per-edge/per-node masks, reference cells through
    the per-node channel; robustness grids therefore get the fleet
    speedup and the shard cache (see ``docs/robustness.md``).  ``churn``
    holds :meth:`~repro.beeping.faults.ChurnSchedule.to_tuples`-style
    event tuples — ``(kind, round, vertex)`` plus
    ``("join", round, vertex, (neighbours...))`` — canonicalised and
    validated through :class:`~repro.beeping.faults.ChurnSchedule` on
    construction.  Churn reference cells must name a
    :data:`CHURN_REFERENCE_ALGORITHMS` member.
    """

    algorithm: str
    engine: str = "fleet"
    family: str = "gnp"
    n: int = 0
    edge_probability: float = 0.5
    rows: int = 0
    cols: int = 0
    side: int = 0
    copies: int = 0
    trials: int = 1
    graphs: int = 1
    master_seed: int = 0
    rng_mode: str = "counter"
    beep_loss: float = 0.0
    spurious_beep: float = 0.0
    crashes: Tuple[Tuple[int, int], ...] = ()
    churn: Tuple[Tuple[Any, ...], ...] = ()
    validate: bool = True
    max_rounds: int = 100_000
    #: Engine neighbour-reduction kernel (one of :data:`BACKENDS`; the
    #: reference engine ignores it).  Pure execution strategy: all
    #: backends compute bit-identical rows, so — like ``validate`` — it is
    #: excluded from the execution fingerprint and a warm cache serves
    #: every backend.
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        check_rng_mode(self.rng_mode)
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.family == "gnp":
            if self.n < 1:
                raise ValueError(f"gnp family needs n >= 1, got {self.n}")
            if not 0.0 <= self.edge_probability <= 1.0:
                raise ValueError(
                    f"edge_probability must be in [0, 1], got {self.edge_probability}"
                )
        elif self.family == "grid":
            if self.rows < 1 or self.cols < 1:
                raise ValueError(
                    f"grid family needs rows, cols >= 1, got {self.rows}x{self.cols}"
                )
        else:
            if self.side < 1:
                raise ValueError(
                    f"theorem1 family needs side >= 1, got {self.side}"
                )
            if self.copies < 0:
                raise ValueError(
                    f"theorem1 family needs copies >= 0, got {self.copies}"
                )
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.graphs < 1:
            raise ValueError(f"graphs must be >= 1, got {self.graphs}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        object.__setattr__(
            self,
            "crashes",
            tuple(sorted((int(r), int(v)) for r, v in self.crashes)),
        )
        # Canonicalise (sort, dedup-check, timeline-validate) the churn
        # events through the schedule round trip.
        object.__setattr__(
            self,
            "churn",
            ChurnSchedule.from_events(
                churn_from_json(self.churn)
            ).to_tuples(),
        )
        faults = self.fault_model()  # validates the fault fields
        if (
            self.churn
            and self.engine == "reference"
            and self.algorithm not in CHURN_REFERENCE_ALGORITHMS
        ):
            raise ValueError(
                f"algorithm {self.algorithm!r} ignores churn schedules; "
                "churn reference cells support "
                f"{sorted(CHURN_REFERENCE_ALGORITHMS)}"
            )
        if self.engine == "fleet":
            if self.algorithm not in FLEET_RULES:
                raise ValueError(
                    f"fleet engine supports rules {sorted(FLEET_RULES)}, "
                    f"got {self.algorithm!r}"
                )
            check_fleet_run(
                FLEET_RULES[self.algorithm](), faults, self.rng_mode
            )
        elif self.algorithm not in available_algorithms():
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"available: {available_algorithms()}"
            )

    @property
    def num_vertices(self) -> int:
        """The graph size (the natural x-axis value of this cell)."""
        if self.family == "gnp":
            return self.n
        if self.family == "grid":
            return self.rows * self.cols
        copies = self.copies or self.side
        return copies * self.side * (self.side + 1) // 2

    def fault_model(self) -> FaultModel:
        """The cell's fault parameters as a :class:`FaultModel`."""
        return FaultModel(
            beep_loss_probability=self.beep_loss,
            spurious_beep_probability=self.spurious_beep,
            crash_schedule=CrashSchedule.from_pairs(self.crashes),
            churn_schedule=ChurnSchedule.from_events(self.churn),
        )

    def family_parameters(self) -> Dict[str, Any]:
        """The parameters of the cell's graph family."""
        if self.family == "gnp":
            return {"n": self.n, "edge_probability": self.edge_probability}
        if self.family == "grid":
            return {"rows": self.rows, "cols": self.cols}
        return {"side": self.side, "copies": self.copies}

    def graph_factory(self) -> KeyedGraphFactory:
        """A seeded graph factory realising the cell's family.

        Its key is the family and its parameters: with ``master_seed``
        they fix every graph a fleet cell draws, so
        :func:`~repro.experiments.runner.run_fleet_trials` draws each
        graph once for all cells and shards that share them.
        """
        key = (self.family, *self.family_parameters().values())
        if self.family == "gnp":
            n, p = self.n, self.edge_probability
            return KeyedGraphFactory(key, lambda rng: gnp_random_graph(n, p, rng))
        if self.family == "grid":
            rows, cols = self.rows, self.cols
            return KeyedGraphFactory(key, lambda _rng: grid_graph(rows, cols))
        side, copies = self.side, self.copies
        return KeyedGraphFactory(key, lambda _rng: theorem1_family(side, copies))

    def execution_fingerprint(self) -> Dict[str, Any]:
        """The fields that determine this cell's rows (see module docs)."""
        fingerprint: Dict[str, Any] = {
            "algorithm": self.algorithm,
            "engine": self.engine,
            "family": self.family,
            "master_seed": self.master_seed,
            "beep_loss": self.beep_loss,
            "spurious_beep": self.spurious_beep,
            "crashes": [list(pair) for pair in self.crashes],
            "churn": churn_to_json(self.churn),
            "max_rounds": self.max_rounds,
        }
        fingerprint.update(self.family_parameters())
        if self.engine == "fleet":
            # The per-graph grouping — and therefore every seed path —
            # depends on the full (trials, graphs) pair; the rng mode
            # decides which uniforms those seeds expand into.  The
            # reference engine uses neither.
            fingerprint["trials"] = self.trials
            fingerprint["graphs"] = self.graphs
            fingerprint["rng_mode"] = self.rng_mode
        return fingerprint

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-safe description (manifests, CLI round trips)."""
        return {
            "algorithm": self.algorithm,
            "engine": self.engine,
            "family": self.family,
            "n": self.n,
            "edge_probability": self.edge_probability,
            "rows": self.rows,
            "cols": self.cols,
            "side": self.side,
            "copies": self.copies,
            "trials": self.trials,
            "graphs": self.graphs,
            "master_seed": self.master_seed,
            "rng_mode": self.rng_mode,
            "beep_loss": self.beep_loss,
            "spurious_beep": self.spurious_beep,
            "crashes": [list(pair) for pair in self.crashes],
            "churn": churn_to_json(self.churn),
            "validate": self.validate,
            "max_rounds": self.max_rounds,
            "backend": self.backend,
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "CellSpec":
        """Inverse of :meth:`to_dict`."""
        data = dict(payload)
        data["crashes"] = tuple(
            (int(r), int(v)) for r, v in data.get("crashes", ())
        )
        data["churn"] = churn_from_json(data.get("churn", ()))
        return CellSpec(**data)


@dataclass(frozen=True)
class ShardSpec:
    """A contiguous global-trial window ``[lo, hi)`` of one cell."""

    cell: CellSpec
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo < self.hi <= self.cell.trials:
            raise ValueError(
                f"shard window must satisfy 0 <= lo < hi <= "
                f"{self.cell.trials}, got ({self.lo}, {self.hi})"
            )

    @property
    def trials(self) -> int:
        """Number of trials this shard executes."""
        return self.hi - self.lo

    def content_hash(self) -> str:
        """sha256 over everything that determines this shard's rows."""
        payload = {
            "format": SPEC_FORMAT_VERSION,
            "cell": self.cell.execution_fingerprint(),
            "lo": self.lo,
            "hi": self.hi,
        }
        digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
        return digest.hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-safe description (stored in the shard manifest)."""
        return {"cell": self.cell.to_dict(), "lo": self.lo, "hi": self.hi}

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "ShardSpec":
        """Inverse of :meth:`to_dict`."""
        return ShardSpec(
            cell=CellSpec.from_dict(payload["cell"]),
            lo=int(payload["lo"]),
            hi=int(payload["hi"]),
        )


@dataclass(frozen=True)
class SweepSpec:
    """A grid of cells plus the shard width the orchestrator splits at.

    ``shard_trials`` bounds how many trials one shard executes; it shapes
    parallelism and cache granularity but never the results — shard hashes
    are per-window, and any partition of ``[0, trials)`` concatenates to
    the same rows.
    """

    cells: Tuple[CellSpec, ...]
    shard_trials: int = 32

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("a sweep needs at least one cell")
        if self.shard_trials < 1:
            raise ValueError(
                f"shard_trials must be >= 1, got {self.shard_trials}"
            )
        object.__setattr__(self, "cells", tuple(self.cells))

    def shards(self) -> List[ShardSpec]:
        """Every cell partitioned into ``shard_trials``-wide windows."""
        out: List[ShardSpec] = []
        for cell in self.cells:
            for lo in range(0, cell.trials, self.shard_trials):
                out.append(
                    ShardSpec(cell, lo, min(lo + self.shard_trials, cell.trials))
                )
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-safe description."""
        return {
            "cells": [cell.to_dict() for cell in self.cells],
            "shard_trials": self.shard_trials,
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "SweepSpec":
        """Inverse of :meth:`to_dict`."""
        return SweepSpec(
            cells=tuple(
                CellSpec.from_dict(cell) for cell in payload["cells"]
            ),
            shard_trials=int(payload.get("shard_trials", 32)),
        )
