"""Lockstep engines for the probability rules: the armada and its fleet.

One round loop, :meth:`ArmadaSimulator._lockstep`, runs every
probability rule.  It vectorises over vertices, trials *and* graphs: each
``(graph, trial)`` pair is one *slot row* of a ``(slots, n)`` boolean
tensor, and a round advances all of them at once —

- ``beep = active & (U < P)`` with one fresh uniform row per live slot;
- ``heard``: one call to the armada's
  :class:`~repro.engine.sparse.NeighbourOperand` — on the ``"dense"``
  backend a batched float32 GEMM against the ``(graphs, n, n)``
  adjacency stack (pull) or, once few vertices beep, an OR of the
  beepers' bit-packed adjacency rows (push), chosen per call by a
  measured cost model; on ``"sparse"`` one slot-packed CSR
  ``bitwise_or.reduceat`` pass per graph.  The operand owns the
  backend; the loop only asks it for the OR, and for the counts the
  noisy channel reads;
- per-slot early exit through an alive-mask: finished slots stop drawing
  and their round counts freeze (stream runs also drop them from the
  OR; counter runs hand their tail to the frontier instead).

:class:`FleetSimulator` is the one-graph armada (all trials of one
graph), and one trial is the one-seed fleet.

Fault injection is vectorised the same way (:mod:`repro.beeping.faults`):
beep loss and spurious beeps are per-node Bernoulli masks on the
``(slots, n)`` tensors — loss collapses each listener's ``k`` independent
edge deliveries into one draw against ``1 - loss**k``, with ``k`` the
beeping-neighbour counts every backend computes — and a
:class:`~repro.beeping.faults.CrashSchedule` is a per-round active-mask
update shared by every live slot.  Faults perturb only the *first*
exchange (the ``heard`` fed to the probability rule); joins and
retirements come from the true beep tensor, so every trial's output stays
a valid independent set, maximal over the surviving vertices.

Bit-reproducibility contract
----------------------------
One trial is the one-seed fleet: ``run_fleet(rule, [seed]).trial_run(0)``
is how every caller runs a single simulation.  Trial ``t`` of a fleet run
seeded with ``derive_seed_block(master_seed, graph_index, count=trials)``
consumes the exact uniforms of the one-seed run on
``derive_seed(master_seed, graph_index, t)`` *in the same* ``rng_mode``:

- ``"stream"`` (the fleet's default): every live slot draws
  ``Generator.random(n)`` once per round from its own sequential
  generator — then once per enabled fault kind (loss uniforms, then
  spurious uniforms).  One ``numpy`` generator object per slot; the
  per-slot draw loop is interpreted Python.
- ``"counter"`` (the armada's default): each round's whole uniform
  block is one stateless :func:`repro.beeping.rng.counter_uniforms` call —
  a pure function of ``(trial seed, round, draw kind, node)``, no
  generator objects, no sequential state, no Python loop.

Every backend computes the same ``heard`` booleans and the alive-mask
keeps finished slots from touching live ones, so round counts, MIS
membership, beep counts and crash sets agree *bit for bit* between a
batch, its seed-by-seed one-seed runs, and any armada stacking of it
within each mode, with or without faults — the conformance suite in
``tests/engine/test_conformance.py`` enforces this per mode and backend.
The two modes draw different uniforms and therefore give different
(equally valid) trajectories; golden traces pin the ``"stream"`` byte
streams.

The lockstep schedule requires the probability rule to be elementwise
(``ProbabilityRule.trial_parallel``); the three paper rules qualify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.beeping.rng import (
    DRAW_BEEP,
    DRAW_LOSS,
    DRAW_SPURIOUS,
    counter_state,
    counter_uniforms,
    counter_uniforms_at,
    stream_generators,
)
from repro.engine.rules import ProbabilityRule
from repro.engine.simulator import (
    DEFAULT_MAX_ROUNDS,
    ChurnState,
    EngineRun,
    armada_width,
    check_rng_mode,
    faulty_observation,
    seed_groups,
)
from repro.engine.sparse import NeighbourOperand
from repro.graphs.graph import Graph
from repro.graphs.validation import verify_mis_rows
from repro.telemetry import probes


@dataclass
class FleetRun:
    """Per-trial outcomes of one fleet simulation.

    Row ``t`` of every array is trial ``t``; :meth:`trial_run` re-packages a
    row as a one-trial :class:`~repro.engine.simulator.EngineRun`.
    """

    rule_name: str
    num_vertices: int
    trials: int
    rounds: np.ndarray
    membership: np.ndarray
    beeps_by_node: np.ndarray
    beep_history: Optional[np.ndarray] = None
    #: ``(trials, n)`` crash indicators; ``None`` when the fault model
    #: scheduled no crashes (the overwhelmingly common case).
    crashed: Optional[np.ndarray] = None
    #: ``(trials, n)`` churn-absence indicators (departed, asleep at the
    #: end, or never joined; the schedule is shared, so every row is
    #: identical), or an application layer's already-peeled vertices;
    #: ``None`` otherwise.
    absent: Optional[np.ndarray] = None
    #: ``(trials, events)`` per-churn-event repair times (``-1`` for
    #: events unresolved at the round cap); ``None`` without churn.
    repair_rounds: Optional[np.ndarray] = None
    #: ``(trials,)`` recovery flags: ``False`` for trials that hit the
    #: round cap mid-repair; ``None`` without churn.
    recovered: Optional[np.ndarray] = None

    @property
    def mean_beeps(self) -> np.ndarray:
        """Per-trial mean beeps per node (``BatchResult.mean_beeps``)."""
        if self.num_vertices == 0:
            return np.zeros(self.trials, dtype=np.float64)
        return self.beeps_by_node.sum(axis=1) / float(self.num_vertices)

    def mis_set(self, trial: int) -> Set[int]:
        """The MIS selected by one trial."""
        return {int(v) for v in np.flatnonzero(self.membership[trial])}

    def crashed_set(self, trial: int) -> Set[int]:
        """The vertices that crashed during one trial."""
        if self.crashed is None:
            return set()
        return {int(v) for v in np.flatnonzero(self.crashed[trial])}

    def absent_set(self, trial: int) -> Set[int]:
        """The universe vertices absent at the end of one trial."""
        if self.absent is None:
            return set()
        return {int(v) for v in np.flatnonzero(self.absent[trial])}

    def trial_recovered(self, trial: int) -> bool:
        """Whether one trial reached quiescence before the round cap."""
        if self.recovered is None:
            return True
        return bool(self.recovered[trial])

    def trial_run(self, trial: int) -> EngineRun:
        """One trial's outcome as an :class:`EngineRun`."""
        return EngineRun(
            rule_name=self.rule_name,
            num_vertices=self.num_vertices,
            rounds=int(self.rounds[trial]),
            mis=self.mis_set(trial),
            beeps_by_node=self.beeps_by_node[trial].copy(),
            crashed=self.crashed_set(trial),
            absent=self.absent_set(trial),
            repair_rounds=(
                tuple(int(r) for r in self.repair_rounds[trial])
                if self.repair_rounds is not None
                else ()
            ),
            recovered=self.trial_recovered(trial),
        )


class FleetSimulator:
    """Runs one rule on one graph for a whole fleet of trials at once.

    The fleet is the one-graph :class:`ArmadaSimulator`: it adds the
    ``"stream"`` rng mode default and the one-graph argument shape, and
    runs the armada's loop.  ``backend`` selects how the neighbour
    reductions are computed (:class:`~repro.engine.sparse.NeighbourOperand`):

    - ``"dense"``: ``(trials, n) @ (n, n)`` float32 GEMM (exact: counts
      are small integers), or for the OR of a round with few beepers a
      gather of their bit-packed adjacency rows, whichever the operand's
      cost model prices lower; memory is the n x n adjacency plus its
      n^2 / 8 bytes of bit rows.
    - ``"sparse"``: the trials packed 64 to a uint64 word per vertex,
      gathered along the CSR neighbour lists and ORed with one
      ``bitwise_or.reduceat`` (:func:`~repro.engine.sparse.csr_row_or`),
      O(trials * n + trials / 64 * m) per round; noisy runs, which need
      counts, use ``add.reduceat``.  The large-sparse-graph path.
    - ``"auto"`` (default): dense up to
      :data:`~repro.engine.sparse.DENSE_VERTEX_LIMIT` vertices, sparse
      beyond (:func:`~repro.engine.sparse.resolve_backend`).

    All backends produce identical booleans, so backend choice never
    changes results — only speed and memory.
    """

    def __init__(
        self,
        graph: Graph,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        backend: str = "auto",
    ) -> None:
        self._graph = graph
        self._armada = ArmadaSimulator([graph], max_rounds, backend)

    @property
    def graph(self) -> Graph:
        """The simulated graph."""
        return self._graph

    @property
    def backend(self) -> str:
        """The resolved backend, ``"dense"`` or ``"sparse"``."""
        return self._armada.backend

    def run_fleet(
        self,
        rule: ProbabilityRule,
        seeds: Sequence[int],
        record_beeps: bool = False,
        faults: FaultModel = NO_FAULTS,
        rng_mode: str = "stream",
    ) -> FleetRun:
        """Simulate one independent trial per seed, all in lockstep.

        ``record_beeps=True`` additionally returns the full round-by-round
        beep tensor (``(rounds, trials, n)``) for trace tests; leave it off
        for large runs.  ``faults`` applies the same fault model to every
        trial; a fault-free model draws no extra randomness, so the run is
        bit-identical to one without the argument.  ``rng_mode`` selects
        the uniform discipline (module docstring); trial ``t`` always
        equals the one-seed run on ``[seeds[t]]`` in the same mode.
        Every trial is verified before return, as in
        :meth:`ArmadaSimulator.run_armada`.
        """
        check_rng_mode(rng_mode)
        return self._armada._on_universe(faults)._lockstep(
            rule, [seeds], faults, rng_mode, record_beeps
        )[0]


class ArmadaSimulator:
    """One lockstep round-loop for *several* same-``n`` graphs at once.

    ``run_fleet_trials`` spreads a cell's trials over independently drawn
    graphs; with one :class:`FleetSimulator` per graph that costs one
    interpreted round-loop per graph.  The armada flattens every
    ``(graph, trial)`` pair into one *slot row* of a ``(slots, n)`` batch
    (rows grouped by graph) and advances the whole cell in a single loop.
    Every slot draws from its own seed alone — stateless counter blocks
    in ``"counter"`` mode (the default), one sequential generator per
    slot in ``"stream"`` mode — so every slot is bit-identical to the
    per-graph fleet run of the same mode it replaces.

    Execution has two phases, chosen per round by activity:

    - **Dense phase** (early rounds, most vertices active): the
      one-bit OR observation is one operand call (``"dense"`` backend:
      a *batched* float32 GEMM against the ``(graphs, n, n)`` adjacency
      stack while many vertices beep, an OR of the beepers' bit-packed
      adjacency rows once the rule has thinned them out) or a per-graph
      slot-packed CSR ``bitwise_or.reduceat`` pass (``"sparse"``
      backend, :func:`~repro.engine.sparse.csr_row_or`) — exact in all
      cases.
    - **Frontier phase** (counter mode without noise, churn or beep
      recording, once the live fraction is small): the state collapses
      to the list of still-active ``(slot, vertex)`` entries.  Uniforms
      are evaluated only at those entries
      (:func:`repro.beeping.rng.counter_uniforms_at` — bit-equal to the
      corresponding block entries), and ``heard`` is a test against the
      beeping entries' neighbours: a scatter of their lists through one
      block-diagonal CSR over the ``graphs * n``-vertex union.  Per-round
      cost then scales with the surviving frontier instead of
      ``slots * n``, which is where most of a figure cell's rounds live.
      On the dense backend a round whose beeping entries' neighbour
      lists would outgrow one full-tensor pass scatters them into a
      ``(slots, n)`` mask and asks the operand for its OR instead (push
      or GEMM, as the operand prices it).

    Crash schedules work in both phases.  Either way the observable
    outputs — round counts, MIS membership, beep counts, crash sets — are
    bit-identical to ``FleetSimulator(graphs[g]).run_fleet(...)`` in the
    same rng mode, slot for slot, which the conformance suite enforces
    (counter runs against the full-width ``frontier_entries=0``
    reference).
    """

    def __init__(
        self,
        graphs: Sequence[Graph],
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        backend: str = "auto",
        frontier_entries: Optional[int] = None,
    ) -> None:
        n = armada_width(graphs, max_rounds)
        if frontier_entries is not None and frontier_entries < 0:
            raise ValueError(
                f"frontier_entries must be >= 0, got {frontier_entries}"
            )
        self._graphs = list(graphs)
        self._n = n
        self._max_rounds = max_rounds
        self._frontier_entries = frontier_entries
        # The churn schedule whose universe these graphs already are.
        self._universe_of = None
        self._operand = NeighbourOperand(self._graphs, backend)
        # Block-diagonal CSR over the graphs * n-vertex union, with
        # *local* column ids: the segment of super-vertex g*n + v holds
        # graph g's neighbour list of v.  Shared by the scatter paths of
        # both backends.  Per-graph starts are unclamped (build_csr), so
        # a trailing isolated run's start lands on the next graph's first
        # segment — harmless, because its degree is 0 and expansion
        # repeats it zero times.
        per_graph = self._operand.csrs
        column_sizes = [columns.size for columns, _, _ in per_graph]
        bases = np.concatenate(([0], np.cumsum(column_sizes)))[:-1]
        self._local_columns = self._operand.columns
        self._super_starts = np.concatenate(
            [starts + base for (_, starts, _), base in zip(per_graph, bases)]
        )
        # Degrees fall out of the (unclamped) CSR starts: consecutive
        # starts delimit each vertex's segment, and a trailing isolated
        # run's repeated start yields the correct zero.
        self._super_degrees = np.concatenate(
            [
                np.diff(np.append(starts, columns.size))
                for columns, starts, _ in per_graph
            ]
        ) if n else np.zeros(0, dtype=np.int64)
        self._mean_degree = (
            float(self._super_degrees.mean()) if self._super_degrees.size else 0.0
        )

    @property
    def graphs(self) -> Sequence[Graph]:
        """The stacked graphs, in slot order."""
        return tuple(self._graphs)

    @property
    def backend(self) -> str:
        """The resolved backend, ``"dense"`` or ``"sparse"``."""
        return self._operand.backend

    def _expand(self, rows_sel: np.ndarray, cols_sel: np.ndarray,
                slot_base: np.ndarray) -> np.ndarray:
        """Neighbour entries of the selected ``(slot row, vertex)`` pairs.

        Returns flat ``row * n + column`` positions in the ``(slots, n)``
        tensors, one per "vertex ``column`` of slot ``row`` has a
        selected neighbour" — the vectorised expansion of the
        block-diagonal CSR segments, one ``repeat``/``cumsum`` pass, no
        Python loop.  (Flat positions index a raveled view several times
        faster than ``(rows, columns)`` pairs.)
        """
        supervertices = slot_base[rows_sel] + cols_sel
        degrees = self._super_degrees[supervertices]
        total = int(degrees.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        ends = np.cumsum(degrees)
        segment = (
            np.repeat(self._super_starts[supervertices] - (ends - degrees),
                      degrees)
            + np.arange(total, dtype=np.int64)
        )
        return np.repeat(rows_sel * self._n, degrees) + self._local_columns[
            segment
        ]

    def _entry_or(self, source_rows: np.ndarray, source_cols: np.ndarray,
                  rows: np.ndarray, cols: np.ndarray, slot_base: np.ndarray,
                  buffer: np.ndarray) -> np.ndarray:
        """Whether each ``(rows, cols)`` entry neighbours a source entry
        of its slot row (the frontier phase's OR test).

        Scatters the sources' neighbour lists into the all-False flat
        ``slots * n`` ``buffer``, gathers at the entries, then
        un-scatters so the buffer stays all-False (cheaper than a clear).
        """
        hits = self._expand(source_rows, source_cols, slot_base)
        buffer[hits] = True
        result = buffer[rows * self._n + cols]
        buffer[hits] = False
        return result

    def run_armada(
        self,
        rule: ProbabilityRule,
        seed_rows: Sequence[Sequence[int]],
        faults: FaultModel = NO_FAULTS,
        rng_mode: str = "counter",
    ) -> List[FleetRun]:
        """Run every graph's trial group in one lockstep batch.

        ``seed_rows[g]`` holds graph ``g``'s trial seeds (the rows may
        have different lengths).  Returns one :class:`FleetRun` per
        graph, bit-identical to ``FleetSimulator(graphs[g]).run_fleet(
        rule, seed_rows[g], rng_mode=rng_mode, ...)``.  Every trial is
        verified as an MIS (of the surviving vertices under faults); a
        failing one raises
        :class:`~repro.graphs.validation.MISValidationError`.
        """
        check_rng_mode(rng_mode)
        return self._on_universe(faults)._lockstep(
            rule, seed_rows, faults, rng_mode, False
        )

    def _on_universe(self, faults: FaultModel) -> "ArmadaSimulator":
        """This armada, or under churn one on the universe graphs (base +
        joiners, one shared schedule so the stacked vertex counts stay
        equal).  Churn runs are niche, so per-run construction beats
        complicating the cached block-diagonal structures.  An armada
        already on the schedule's universe is returned as is."""
        schedule = faults.churn_schedule
        if schedule.is_empty() or schedule == self._universe_of:
            return self
        universe = ArmadaSimulator(
            [schedule.universe_graph(graph) for graph in self._graphs],
            max_rounds=self._max_rounds,
            backend=self._operand.backend,
            frontier_entries=self._frontier_entries,
        )
        universe._universe_of = schedule
        return universe

    def _lockstep(
        self,
        rule: ProbabilityRule,
        seed_rows: Sequence[Sequence[int]],
        faults: FaultModel,
        rng_mode: str,
        record_beeps: bool,
        initial_active: Optional[np.ndarray] = None,
        lanes: Optional[np.ndarray] = None,
    ) -> List[FleetRun]:
        """The probability-rule round loop; graphs are already the
        universes (:meth:`_on_universe`).  For the application layers
        (fault-free counter runs), ``initial_active`` is a ``(slots, n)``
        starting mask and vertex ``v`` of slot ``s`` draws counter lane
        ``lanes[s, v]`` instead of ``v``, in both phases."""
        if not getattr(rule, "trial_parallel", False):
            raise ValueError(
                f"rule {rule.name!r} is not trial-parallel; "
                "lockstep engines need an elementwise, stateless rule"
            )
        groups = seed_groups(seed_rows, len(self._graphs))
        sizes = [int(group.size) for group in groups]
        n = self._n
        num_graphs = len(self._graphs)
        total = sum(sizes)
        seeds = np.concatenate(groups)
        counter = rng_mode == "counter"
        generators = (
            None
            if counter
            else stream_generators([seed for row in seed_rows for seed in row])
        )
        slot_graph = np.repeat(np.arange(num_graphs, dtype=np.int64), sizes)
        slot_base = slot_graph * n
        loss = faults.beep_loss_probability
        spurious = faults.spurious_beep_probability
        noisy = loss > 0.0 or spurious > 0.0
        churn_schedule = faults.churn_schedule
        has_churn = not churn_schedule.is_empty()
        crash_masks: Dict[int, np.ndarray] = faults.crash_schedule.round_masks(n)
        crashed = (
            np.zeros((total, n), dtype=bool)
            if crash_masks or has_churn
            else None
        )
        churn = (
            ChurnState(churn_schedule, n, shape=(total, n))
            if has_churn
            else None
        )
        last_event = churn.last_event_round if has_churn else -1
        if has_churn:
            active = churn.initial_active()
        elif initial_active is not None:
            active = initial_active.copy()
        else:
            active = np.ones((total, n), dtype=bool)
        initial_row = rule.initial(n) if has_churn else None
        recovered = np.ones(total, dtype=bool) if has_churn else None
        membership = np.zeros((total, n), dtype=bool)
        probabilities = np.broadcast_to(
            rule.initial(n), (total, n)
        ).astype(np.float64, copy=True)
        beeps = np.zeros((total, n), dtype=np.int64)
        rounds = np.zeros(total, dtype=np.int64)
        # Persistent uniform buffers, one per enabled draw kind in the
        # per-round draw order, for the live-row draws of noisy and stream
        # runs; fault-free counter rounds use the fresh block instead.
        loss_uniforms = (
            np.empty((total, n), dtype=np.float64) if loss > 0.0 else None
        )
        spurious_uniforms = (
            np.empty((total, n), dtype=np.float64) if spurious > 0.0 else None
        )
        draws = []
        if noisy or not counter:
            draws.append((DRAW_BEEP, np.empty((total, n), dtype=np.float64)))
        if loss > 0.0:
            draws.append((DRAW_LOSS, loss_uniforms))
        if spurious > 0.0:
            draws.append((DRAW_SPURIOUS, spurious_uniforms))
        beep = np.empty((total, n), dtype=bool)
        joined = np.empty((total, n), dtype=bool)
        scratch = np.empty((total, n), dtype=bool)
        heard_buf = np.empty((total, n), dtype=bool)
        history = [] if record_beeps else None
        alive = active.any(axis=1)
        if has_churn:
            # No slot retires before the last event (shared schedule):
            # quiescent slots keep executing (and, in stream mode,
            # drawing) through the quiet gaps.
            alive[:] = True
        # The frontier needs stateless point reads (counter mode); whole
        # tensors stay relevant under noise or beep recording, and churn
        # repairs need the full-width quiescence bookkeeping.
        frontier_ok = (
            counter and not noisy and not has_churn and not record_beeps
        )
        frontier_limit = self._frontier_entries
        if frontier_limit is None:
            frontier_limit = max(256, (total * n) // 3)
        round_index = 0
        capped = False
        # Out-of-band telemetry (hoisted flag; the only probe-side work,
        # the active-cell tally, runs only when probes are on).
        telemetry_on = probes.enabled()
        active_cells = 0
        # ---------------- dense phase ----------------
        while alive.any():
            if round_index >= self._max_rounds:
                if has_churn:
                    # Graceful degradation: flag the slots still mid-
                    # repair instead of raising — each is still a valid
                    # (possibly non-maximal) independent set.
                    recovered = ~alive
                    rounds[alive] = round_index
                    capped = True
                    break
                raise RuntimeError(
                    f"lockstep simulation exceeded {self._max_rounds} rounds"
                )
            if frontier_ok and np.count_nonzero(active) <= frontier_limit:
                break  # hand the tail to the frontier
            if has_churn and churn.apply_events(
                round_index, active, membership, crashed,
                lambda flags: self._operand.any(flags, sizes),
                probabilities, initial_row,
            ):
                churn.record_quiescence(round_index, ~active.any(axis=1))
            crash = crash_masks.get(round_index)
            if crash is not None:
                # Fail-stop at the start of the round: only still-active
                # vertices crash; finished slots have all-False rows.
                newly_crashed = active & crash
                crashed |= newly_crashed
                active &= ~newly_crashed
            if telemetry_on:
                active_cells += int(np.count_nonzero(active))
            if not draws:
                # Counter draws are pure per-slot functions, so dead rows
                # may read fresh uniforms (their active mask is False);
                # skipping the live-row gather saves two copies per round.
                if lanes is None:
                    uniforms = counter_uniforms(
                        seeds, round_index, DRAW_BEEP, n
                    )
                else:
                    states = counter_state(seeds, round_index, DRAW_BEEP)
                    uniforms = counter_uniforms_at(states[:, None], lanes)
            else:
                # Dead rows keep stale uniforms, but their active row is
                # all-False so beep stays all-False there.
                live = np.flatnonzero(alive)
                live_sizes = np.bincount(
                    slot_graph[live], minlength=num_graphs
                )
                if counter:
                    live_seeds = seeds[live]
                    for kind, buffer in draws:
                        buffer[live] = counter_uniforms(
                            live_seeds, round_index, kind, n
                        )
                else:
                    # Ascending slot order, beep then loss then spurious
                    # within a slot: each generator emits exactly its
                    # one-seed run's stream.
                    for t in live:
                        for _, buffer in draws:
                            buffer[t] = generators[t].random(n)
                uniforms = draws[0][1]
            # Elementwise steps run through preallocated buffers (out=):
            # at dense-phase sizes the hidden page-touch cost of fresh
            # temporaries rivals the arithmetic itself.
            np.less(uniforms, probabilities, out=beep)
            beep &= active
            if noisy:
                # Dead rows stay zero; only the live rows are reduced.
                counts = np.zeros((total, n), dtype=np.int64)
                counts[live] = self._operand.counts(beep[live], live_sizes)
                heard_true = counts > 0
                # Finished slots keep stale fault uniforms; mask their
                # heard bits off to keep the tensors clean.
                heard = faulty_observation(
                    counts, loss, spurious, loss_uniforms, spurious_uniforms
                ) & alive[:, None]
            elif counter or live.size == total:
                heard_true = self._operand.any(beep, sizes, out=heard_buf)
                heard = heard_true
            else:
                # Stream runs have no frontier tail: reduce only the
                # live slot rows, so finished trials stop costing a GEMM.
                heard_true = heard_buf
                heard_true[:] = False
                heard_true[live] = self._operand.any(beep[live], live_sizes)
                heard = heard_true
            probabilities = rule.update(
                probabilities, heard, active, round_index
            )
            # Second exchange stays reliable: joins come from the true OR.
            np.logical_not(heard_true, out=scratch)
            np.logical_and(beep, scratch, out=joined)
            membership |= joined
            joined_rows, joined_cols = np.divmod(np.flatnonzero(joined), n)
            scratch[:] = False
            scratch.reshape(-1)[
                self._expand(joined_rows, joined_cols, slot_base)
            ] = True
            beeps += beep
            if record_beeps:
                history.append(beep.copy())
            joined |= scratch  # joined-or-neighbour: exactly the retirees
            np.logical_not(joined, out=scratch)
            active &= scratch
            still_alive = active.any(axis=1)
            if has_churn:
                churn.record_quiescence(
                    round_index + 1, ~still_alive, applied_rounds=round_index
                )
                if round_index + 1 <= last_event:
                    still_alive = np.ones(total, dtype=bool)
            rounds[alive & ~still_alive] = round_index + 1
            alive = still_alive
            round_index += 1
        # ---------------- frontier phase ----------------
        dense_rounds = round_index
        if alive.any() and not capped:
            entry_rows, entry_cols = np.divmod(np.flatnonzero(active), n)
            entry_p = probabilities[entry_rows, entry_cols]
            if telemetry_on:
                probes.count("engine.armada.frontier_transitions")
                probes.gauge(
                    "engine.armada.frontier_round", float(round_index)
                )
                probes.gauge(
                    "engine.armada.frontier_entries", float(entry_rows.size)
                )
            heard_buffer = np.zeros(total * n, dtype=bool)
            # Raveled views: flat fancy indexing beats (row, col) pairs.
            flat_beeps = beeps.reshape(-1)
            flat_membership = membership.reshape(-1)
            true_entries = np.ones(0, dtype=bool)
            # One full-tensor pass is what a dense-phase round would pay;
            # expand while the beeping entries' neighbour lists stay
            # below it, otherwise ask the operand (push or GEMM).
            expansion_budget = float(max(total * n, 1))
            # Counter states for a block of future rounds in one call
            # (statelessness makes look-ahead free); refilled as the
            # frontier outlives each block.
            state_block_rounds = 16
            state_block_base = -1
            state_block = None
            while entry_rows.size:
                if round_index >= self._max_rounds:
                    raise RuntimeError(
                        f"lockstep simulation exceeded {self._max_rounds} "
                        "rounds"
                    )
                crash = crash_masks.get(round_index)
                if crash is not None:
                    hit = crash[entry_cols]
                    if hit.any():
                        crashed[entry_rows[hit], entry_cols[hit]] = True
                        keep = ~hit
                        entry_rows = entry_rows[keep]
                        entry_cols = entry_cols[keep]
                        entry_p = entry_p[keep]
                if telemetry_on:
                    active_cells += int(entry_rows.size)
                if (
                    state_block is None
                    or round_index >= state_block_base + state_block_rounds
                ):
                    state_block_base = round_index
                    block = np.arange(
                        state_block_base,
                        state_block_base + state_block_rounds,
                        dtype=np.uint64,
                    )
                    state_block = counter_state(
                        seeds, block[:, np.newaxis], DRAW_BEEP
                    )
                state = state_block[round_index - state_block_base]
                entry_lanes = (
                    entry_cols if lanes is None
                    else lanes[entry_rows, entry_cols]
                )
                entry_uniforms = counter_uniforms_at(
                    state[entry_rows], entry_lanes
                )
                entry_beep = entry_uniforms < entry_p
                beep_rows = entry_rows[entry_beep]
                beep_cols = entry_cols[entry_beep]
                flat_beeps[beep_rows * n + beep_cols] += 1
                if (
                    self._operand.backend == "dense"
                    and beep_rows.size * max(self._mean_degree, 1.0)
                    > expansion_budget
                ):
                    # Dense beeps (typical right after the handoff): one
                    # operand OR over the beeping entries beats expanding
                    # their neighbour lists.
                    beep[:] = False
                    beep.reshape(-1)[beep_rows * n + beep_cols] = True
                    entry_heard = self._operand.any(
                        beep, sizes, out=heard_buf
                    ).reshape(-1)[entry_rows * n + entry_cols]
                else:
                    entry_heard = self._entry_or(
                        beep_rows, beep_cols, entry_rows, entry_cols,
                        slot_base, heard_buffer,
                    )
                if true_entries.size < entry_rows.size:
                    true_entries = np.ones(entry_rows.size, dtype=bool)
                entry_p = rule.update(
                    entry_p,
                    entry_heard,
                    true_entries[: entry_rows.size],
                    round_index,
                )
                entry_joined = entry_beep & ~entry_heard
                joined_rows = entry_rows[entry_joined]
                joined_cols = entry_cols[entry_joined]
                flat_membership[joined_rows * n + joined_cols] = True
                retired = entry_joined | self._entry_or(
                    joined_rows, joined_cols, entry_rows, entry_cols,
                    slot_base, heard_buffer,
                )
                keep = ~retired
                entry_rows = entry_rows[keep]
                entry_cols = entry_cols[keep]
                entry_p = entry_p[keep]
                surviving = np.zeros(total, dtype=bool)
                surviving[entry_rows] = True
                rounds[alive & ~surviving] = round_index + 1
                alive = surviving
                round_index += 1
        # ---------------- assemble per-graph runs ----------------
        if telemetry_on:
            probes.count("engine.armada.runs")
            probes.count("engine.armada.graphs", num_graphs)
            probes.count("engine.armada.trials", total)
            probes.count("engine.armada.rounds", round_index)
            probes.count("engine.armada.dense_rounds", dense_rounds)
            probes.count(
                "engine.armada.frontier_rounds", round_index - dense_rounds
            )
            probes.count(f"engine.backend.{self._operand.backend}")
            if has_churn:
                probes.count(
                    "engine.churn.events",
                    total * len(churn_schedule.events),
                )
                resolved = churn.repair[churn.repair >= 0]
                if resolved.size:
                    probes.gauge(
                        "engine.repair.rounds", float(resolved.mean())
                    )
            if round_index and total and n:
                probes.gauge(
                    "engine.armada.active_fraction",
                    active_cells / (round_index * total * n),
                )
        if has_churn:
            absent = churn.absent_mask()
        else:  # a peeling layer's set is an MIS of its unpeeled vertices
            absent = None if initial_active is None else ~initial_active
        if record_beeps:
            history = np.array(history, dtype=bool).reshape(
                len(history), total, n
            )
        runs: List[FleetRun] = []
        offset = 0
        for g, size in enumerate(sizes):
            block = slice(offset, offset + size)
            run = FleetRun(
                rule_name=rule.name,
                num_vertices=n,
                trials=size,
                rounds=rounds[block].copy(),
                membership=membership[block].copy(),
                beeps_by_node=beeps[block].copy(),
                beep_history=(
                    history[:, block] if record_beeps else None
                ),
                crashed=(
                    crashed[block].copy() if crash_masks else None
                ),
                absent=(
                    absent[block].copy() if absent is not None else None
                ),
                repair_rounds=(
                    churn.repair[block].copy() if has_churn else None
                ),
                recovered=(
                    recovered[block].copy() if has_churn else None
                ),
            )
            verify_mis_rows(
                self._graphs[g],
                run.membership,
                crashed=run.crashed,
                absent=run.absent,
                recovered=run.recovered,
            )
            runs.append(run)
            offset += size
        return runs
