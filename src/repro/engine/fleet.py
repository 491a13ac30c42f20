"""Trial-parallel fleet engine: all trials of one batch in lockstep.

This engine vectorises over vertices *and* trials, so a 100-trial figure
point costs one interpreted round-loop, not 100: the whole batch is a
``(trials, n)`` boolean tensor advanced one round at a time —

- ``beep = active & (U < P)`` with one fresh uniform row per live trial;
- ``heard``: one batched matmul against the adjacency (dense backend) or
  one ``add.reduceat`` pass over the CSR neighbour lists (sparse backend);
- per-trial early exit through an alive-mask: finished trials drop out of
  the random drawing and the matmul, and their round counts freeze.

Fault injection is vectorised the same way (:mod:`repro.beeping.faults`):
beep loss and spurious beeps are per-node Bernoulli masks on the
``(trials, n)`` tensors — loss collapses each listener's ``k`` independent
edge deliveries into one draw against ``1 - loss**k``, with ``k`` the
beeping-neighbour counts both backends already compute — and a
:class:`~repro.beeping.faults.CrashSchedule` is a per-round active-mask
update shared by every live trial.  Faults perturb only the *first*
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

- ``"stream"`` (the default): every live trial draws
  ``Generator.random(n)`` once per round from its own sequential
  generator — then once per enabled fault kind (loss uniforms, then
  spurious uniforms).  One ``numpy`` generator object per trial; the
  per-trial draw loop is interpreted Python.
- ``"counter"``: each round's whole ``(trials, n)`` uniform block is one
  stateless :func:`repro.beeping.rng.counter_uniforms` call — a pure
  function of ``(trial seed, round, draw kind, node)``, no generator
  objects, no sequential state, no Python loop.

Every backend computes the same ``heard`` booleans, and the alive-mask
(or the bitboard backend's compaction) keeps finished trials from
touching live ones, so round counts, MIS membership, beep counts and
crash sets agree *bit for bit* between a batch and its seed-by-seed
one-seed runs within each mode, with or without faults — the
conformance suite in ``tests/engine/test_conformance.py`` enforces this
per mode and backend.  The two
modes draw different uniforms and therefore give different (equally
valid) trajectories; golden traces pin the ``"stream"`` byte streams.

:class:`ArmadaSimulator` extends the lockstep one dimension further for
the counter mode: all same-``n`` graph groups of one experiment cell run
as a single block-diagonal batch — one batched dense GEMM (``(graphs, n,
n)`` adjacency stack) or one block-diagonal CSR ``reduceat`` pass per
round for the *whole cell* — removing the last per-graph interpreted
round-loop from the figure hot path.

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
    seed_array,
    stream_generators,
)
from repro.engine.bitboard import BitboardKernel, run_bitboard_fleet
from repro.engine.rules import ProbabilityRule
from repro.engine.simulator import (
    DEFAULT_MAX_ROUNDS,
    ChurnState,
    EngineRun,
    check_rng_mode,
    faulty_observation,
)
from repro.engine.sparse import build_csr, csr_row_counts
from repro.graphs.graph import Graph
from repro.graphs.validation import verify_mis
from repro.telemetry import probes

#: Largest vertex count for which the ``auto`` backend picks the dense
#: (float32 GEMM) path; a 4096^2 float32 adjacency is 64 MB.
DENSE_VERTEX_LIMIT = 4096


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
    #: end, or never joined); ``None`` when the fault model scheduled no
    #: churn.  The schedule is shared, so every row is identical.
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

    ``backend`` selects how the one-bit OR observation is computed:

    - ``"dense"``: ``(trials, n) @ (n, n)`` float32 GEMM.  Exact (counts are
      small integers) and BLAS-fast; memory is the n x n adjacency.
    - ``"sparse"``: gather + ``add.reduceat`` over CSR neighbour lists,
      O(trials * (n + m)) per round; the large-sparse-graph path.
    - ``"bitboard"``: flags and adjacency rows packed into ``uint64``
      lanes; the OR is bitwise AND/OR over the packed rows and counts
      come from ``popcount`` (:mod:`repro.engine.bitboard`).  Runs its
      own live-row-compacted loop with a counter-mode frontier tail —
      the fastest backend at figure sizes, opt-in.
    - ``"auto"`` (default): dense up to :data:`DENSE_VERTEX_LIMIT` vertices,
      sparse beyond.

    All backends produce identical booleans, so backend choice never
    changes results — only speed and memory.
    """

    def __init__(
        self,
        graph: Graph,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        backend: str = "auto",
    ) -> None:
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if backend not in ("auto", "dense", "sparse", "bitboard"):
            raise ValueError(
                "backend must be 'auto', 'dense', 'sparse' or 'bitboard', "
                f"got {backend!r}"
            )
        self._graph = graph
        self._max_rounds = max_rounds
        n = graph.num_vertices
        if backend == "auto":
            backend = "dense" if n <= DENSE_VERTEX_LIMIT else "sparse"
        self._backend = backend
        if backend == "dense":
            self._adjacency = graph.adjacency_matrix().astype(np.float32)
            # Reused float32 staging buffer for the GEMM operand; grown on
            # demand, so no per-round astype allocation on the hot path.
            self._flags32: Optional[np.ndarray] = None
        elif backend == "bitboard":
            self._kernel = BitboardKernel(graph)
        else:
            self._columns, self._starts, self._isolated = build_csr(graph)

    @property
    def graph(self) -> Graph:
        """The simulated graph."""
        return self._graph

    @property
    def backend(self) -> str:
        """The resolved backend: ``"dense"``, ``"sparse"`` or ``"bitboard"``."""
        return self._backend

    def _as_float32(self, flags: np.ndarray) -> np.ndarray:
        """``flags`` cast into the cached float32 GEMM staging buffer."""
        k, n = flags.shape
        if self._flags32 is None or self._flags32.shape[0] < k:
            self._flags32 = np.empty((k, n), dtype=np.float32)
        staged = self._flags32[:k]
        np.copyto(staged, flags)
        return staged

    def _neighbor_or(self, flags: np.ndarray) -> np.ndarray:
        """Row-wise: whether any neighbour's flag is set, per vertex."""
        if self._backend == "bitboard":
            return self._kernel.neighbor_or(flags)
        if self._backend == "dense":
            k, n = flags.shape
            if n == 0:
                return np.zeros((k, 0), dtype=bool)
            # Compare the float counts directly: the fault-free hot path
            # skips _neighbor_counts's int64 conversion.
            counts = self._as_float32(flags) @ self._adjacency
            return counts > 0.0
        return self._neighbor_counts(flags) > 0

    def _scattered_neighbor_or(
        self, flags: np.ndarray, live: np.ndarray
    ) -> np.ndarray:
        """Neighbour-OR computed only on live rows, zero elsewhere."""
        if live.size == flags.shape[0]:
            return self._neighbor_or(flags)
        result = np.zeros(flags.shape, dtype=bool)
        result[live] = self._neighbor_or(flags[live])
        return result

    def _neighbor_counts(self, flags: np.ndarray) -> np.ndarray:
        """Row-wise beeping-neighbour counts (int64), per vertex."""
        k, n = flags.shape
        if n == 0:
            return np.zeros((k, 0), dtype=np.int64)
        if self._backend == "bitboard":
            return self._kernel.neighbor_counts(flags)
        if self._backend == "dense":
            # float32 GEMM counts are exact small integers (degree < 2^24).
            counts = self._as_float32(flags) @ self._adjacency
            return counts.astype(np.int64)
        return csr_row_counts(
            flags, self._columns, self._starts, self._isolated
        )

    def _scattered_neighbor_counts(
        self, flags: np.ndarray, live: np.ndarray
    ) -> np.ndarray:
        """Neighbour counts computed only on live rows, zero elsewhere."""
        if live.size == flags.shape[0]:
            return self._neighbor_counts(flags)
        result = np.zeros(flags.shape, dtype=np.int64)
        result[live] = self._neighbor_counts(flags[live])
        return result

    def run_fleet(
        self,
        rule: ProbabilityRule,
        seeds: Sequence[int],
        validate: bool = False,
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
        """
        check_rng_mode(rng_mode)
        if len(seeds) < 1:
            raise ValueError("need at least one seed")
        if not getattr(rule, "trial_parallel", False):
            raise ValueError(
                f"rule {rule.name!r} is not trial-parallel; "
                "lockstep engines need an elementwise, stateless rule"
            )
        if self._backend == "bitboard":
            # The bitboard engine runs its own (live-row-compacted) loop;
            # same draw order per mode, bit-identical results.  It
            # handles any churn universe rebuild itself.
            return run_bitboard_fleet(
                self._kernel,
                self._graph,
                rule,
                seeds,
                validate=validate,
                record_beeps=record_beeps,
                faults=faults,
                rng_mode=rng_mode,
                max_rounds=self._max_rounds,
            )
        churn_schedule = faults.churn_schedule
        if churn_schedule.is_empty():
            engine = self
        else:
            # Rebuild on the universe graph (base + joiners) for this
            # run — churn runs are niche, so per-run construction beats
            # complicating the cached structures.
            engine = FleetSimulator(
                churn_schedule.universe_graph(self._graph),
                max_rounds=self._max_rounds,
                backend=self._backend,
            )
        return engine._run_fleet(
            rule, seeds, validate, record_beeps, faults, rng_mode
        )

    def _run_fleet(
        self,
        rule: ProbabilityRule,
        seeds: Sequence[int],
        validate: bool,
        record_beeps: bool,
        faults: FaultModel,
        rng_mode: str,
    ) -> FleetRun:
        """The lockstep loop; ``self._graph`` is already the universe."""
        n = self._graph.num_vertices
        trials = len(seeds)
        loss = faults.beep_loss_probability
        spurious = faults.spurious_beep_probability
        noisy = loss > 0.0 or spurious > 0.0
        churn_schedule = faults.churn_schedule
        has_churn = not churn_schedule.is_empty()
        crash_masks: Dict[int, np.ndarray] = faults.crash_schedule.round_masks(n)
        crashed = (
            np.zeros((trials, n), dtype=bool)
            if crash_masks or has_churn
            else None
        )
        counter = rng_mode == "counter"
        if counter:
            trial_seeds = seed_array(seeds)
            generators = None
        else:
            generators = stream_generators(seeds)
        churn = (
            ChurnState(churn_schedule, n, shape=(trials, n))
            if has_churn
            else None
        )
        last_event = churn.last_event_round if has_churn else -1
        active = (
            churn.initial_active()
            if has_churn
            else np.ones((trials, n), dtype=bool)
        )
        initial_row = rule.initial(n) if has_churn else None
        recovered = np.ones(trials, dtype=bool) if has_churn else None
        membership = np.zeros((trials, n), dtype=bool)
        probabilities = np.broadcast_to(
            rule.initial(n), (trials, n)
        ).astype(np.float64, copy=True)
        beeps = np.zeros((trials, n), dtype=np.int64)
        rounds = np.zeros(trials, dtype=np.int64)
        uniforms = np.empty((trials, n), dtype=np.float64)
        loss_uniforms = (
            np.empty((trials, n), dtype=np.float64) if loss > 0.0 else None
        )
        spurious_uniforms = (
            np.empty((trials, n), dtype=np.float64) if spurious > 0.0 else None
        )
        history = [] if record_beeps else None
        alive = active.any(axis=1)
        if has_churn:
            # Every trial shares the schedule, so none may retire before
            # the last event: quiescent trials keep executing (and, in
            # stream mode, drawing) through the quiet gaps.
            alive[:] = True
        round_index = 0
        # Telemetry is out of band: the flag is hoisted so disabled runs
        # pay one boolean check per round, and the active-cell tally (the
        # only probe-side computation) happens only when probes are on.
        telemetry_on = probes.enabled()
        active_cells = 0
        while alive.any():
            if round_index >= self._max_rounds:
                if has_churn:
                    # Graceful degradation: flag the trials still mid-
                    # repair instead of raising — each is still a valid
                    # (possibly non-maximal) independent set.
                    recovered = ~alive
                    rounds[alive] = round_index
                    break
                raise RuntimeError(
                    f"fleet simulation exceeded {self._max_rounds} rounds"
                )
            if has_churn and churn.apply_events(
                round_index, active, membership, crashed,
                self._neighbor_or, probabilities, initial_row,
            ):
                churn.record_quiescence(round_index, ~active.any(axis=1))
            crash = crash_masks.get(round_index)
            if crash is not None:
                # Fail-stop at the start of the round: only still-active
                # vertices crash (members and retirees already left).
                # Finished trials have all-False active rows, so the
                # crash never reaches them.
                newly_crashed = active & crash
                crashed |= newly_crashed
                active &= ~newly_crashed
            if telemetry_on:
                active_cells += int(np.count_nonzero(active))
            live = np.flatnonzero(alive)
            if counter:
                # Counter mode: each enabled kind's whole block is one
                # stateless vectorised call — no per-trial Python loop.
                live_seeds = trial_seeds[live]
                uniforms[live] = counter_uniforms(
                    live_seeds, round_index, DRAW_BEEP, n
                )
                if loss > 0.0:
                    loss_uniforms[live] = counter_uniforms(
                        live_seeds, round_index, DRAW_LOSS, n
                    )
                if spurious > 0.0:
                    spurious_uniforms[live] = counter_uniforms(
                        live_seeds, round_index, DRAW_SPURIOUS, n
                    )
            else:
                # One pass over the live trials draws all enabled uniform
                # rows; generators are per-trial, so only the within-trial
                # order (beep, then loss, then spurious) affects the
                # streams.
                for t in live:
                    uniforms[t] = generators[t].random(n)
                    if loss > 0.0:
                        loss_uniforms[t] = generators[t].random(n)
                    if spurious > 0.0:
                        spurious_uniforms[t] = generators[t].random(n)
            # Dead rows keep stale uniforms, but their active row is
            # all-False so beep stays all-False there.
            beep = active & (uniforms < probabilities)
            if noisy:
                counts = self._scattered_neighbor_counts(beep, live)
                heard_true = counts > 0
                # Stale fault uniforms on dead rows could flip their heard
                # bits; mask them off (their probabilities are unused, but
                # keep the tensors clean).
                heard = faulty_observation(
                    counts, loss, spurious, loss_uniforms, spurious_uniforms
                ) & alive[:, None]
            else:
                heard_true = self._scattered_neighbor_or(beep, live)
                heard = heard_true
            probabilities = rule.update(probabilities, heard, active, round_index)
            # Second exchange stays reliable: joins come from the true OR.
            joined = beep & ~heard_true
            membership |= joined
            neighbor_joined = self._scattered_neighbor_or(joined, live)
            beeps += beep
            active &= ~(joined | neighbor_joined)
            if record_beeps:
                history.append(beep.copy())
            still_alive = active.any(axis=1)
            if has_churn:
                churn.record_quiescence(
                    round_index + 1, ~still_alive, applied_rounds=round_index
                )
                if round_index + 1 <= last_event:
                    still_alive = np.ones(trials, dtype=bool)
            rounds[alive & ~still_alive] = round_index + 1
            alive = still_alive
            round_index += 1
        run = FleetRun(
            rule_name=rule.name,
            num_vertices=n,
            trials=trials,
            rounds=rounds,
            membership=membership,
            beeps_by_node=beeps,
            beep_history=(
                np.array(history, dtype=bool).reshape(len(history), trials, n)
                if record_beeps
                else None
            ),
            crashed=crashed if crash_masks else None,
            absent=churn.absent_mask() if has_churn else None,
            repair_rounds=churn.repair if has_churn else None,
            recovered=recovered,
        )
        if telemetry_on:
            probes.count("engine.fleet.runs")
            probes.count("engine.fleet.rounds", round_index)
            probes.count("engine.fleet.trials", trials)
            probes.count(f"engine.backend.{self._backend}")
            if has_churn:
                probes.count(
                    "engine.churn.events",
                    trials * len(churn_schedule.events),
                )
                resolved = churn.repair[churn.repair >= 0]
                if resolved.size:
                    probes.gauge(
                        "engine.repair.rounds", float(resolved.mean())
                    )
            if round_index and trials and n:
                probes.gauge(
                    "engine.fleet.active_fraction",
                    active_cells / (round_index * trials * n),
                )
        if validate:
            for trial in range(trials):
                if not run.trial_recovered(trial):
                    continue
                verify_mis(
                    self._graph,
                    run.mis_set(trial),
                    crashed=run.crashed_set(trial),
                    absent=run.absent_set(trial),
                )
        return run


class ArmadaSimulator:
    """One lockstep round-loop for *several* same-``n`` graphs at once.

    ``run_fleet_trials`` spreads a cell's trials over independently drawn
    graphs; with one :class:`FleetSimulator` per graph that costs one
    interpreted round-loop per graph.  The armada flattens every
    ``(graph, trial)`` pair into one *slot row* of a ``(slots, n)`` batch
    (rows grouped by graph) and advances the whole cell in a single loop.
    It runs in ``"counter"`` rng mode only: its uniforms are pure
    functions of ``(seed, round, kind, node)``, so no per-trial generator
    state exists to thread through the batching, and every slot is
    bit-identical to the per-graph counter-mode fleet run it replaces
    (``"stream"`` mode would need one live generator per slot plus the
    fleet's per-trial draw loop — exactly the interpreted work this class
    exists to delete).

    Execution has two phases, chosen per round by activity:

    - **Dense phase** (early rounds, most vertices active): the
      one-bit OR observation is one *batched* float32 GEMM against the
      ``(graphs, n, n)`` adjacency stack (``"dense"`` backend), a
      per-graph CSR ``add.reduceat`` pass (``"sparse"`` backend), or a
      per-graph packed AND/OR over ``uint64`` bitboard rows
      (``"bitboard"`` backend) — exact in all cases.
    - **Frontier phase** (fault-free runs, once the live fraction is
      small): the state collapses to the list of still-active ``(slot,
      vertex)`` entries.  Uniforms are evaluated only at those entries
      (:func:`repro.beeping.rng.counter_uniforms_at` — bit-equal to the
      corresponding block entries), and ``heard`` comes from scattering
      the beeping entries' neighbour lists through one block-diagonal
      CSR over the ``graphs * n``-vertex union.  Per-round cost then
      scales with the surviving frontier instead of ``slots * n``, which
      is where most of a figure cell's rounds live.

    Beep-loss/spurious-noise runs stay in the dense phase throughout
    (noise keeps the whole tensor relevant); crash schedules work in both
    phases.  Either way the observable outputs — round counts, MIS
    membership, beep counts, crash sets — are bit-identical to
    ``FleetSimulator(graphs[g]).run_fleet(..., rng_mode="counter")``
    slot for slot, which the conformance suite enforces.
    """

    def __init__(
        self,
        graphs: Sequence[Graph],
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        backend: str = "auto",
        frontier_entries: Optional[int] = None,
    ) -> None:
        if not graphs:
            raise ValueError("need at least one graph")
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if backend not in ("auto", "dense", "sparse", "bitboard"):
            raise ValueError(
                "backend must be 'auto', 'dense', 'sparse' or 'bitboard', "
                f"got {backend!r}"
            )
        if frontier_entries is not None and frontier_entries < 0:
            raise ValueError(
                f"frontier_entries must be >= 0, got {frontier_entries}"
            )
        n = graphs[0].num_vertices
        for graph in graphs:
            if graph.num_vertices != n:
                raise ValueError(
                    "armada graphs must share one vertex count, got "
                    f"{n} and {graph.num_vertices}"
                )
        self._graphs = list(graphs)
        self._n = n
        self._max_rounds = max_rounds
        self._frontier_entries = frontier_entries
        num_graphs = len(self._graphs)
        if backend == "auto":
            backend = (
                "dense"
                if num_graphs * n * n <= DENSE_VERTEX_LIMIT ** 2
                else "sparse"
            )
        self._backend = backend
        # Block-diagonal CSR over the graphs * n-vertex union, with
        # *local* column ids: the segment of super-vertex g*n + v holds
        # graph g's neighbour list of v.  Shared by the scatter paths of
        # both backends.  Per-graph starts are unclamped (build_csr), so
        # a trailing isolated run's start lands on the next graph's first
        # segment — harmless, because its degree is 0 and expansion
        # repeats it zero times.
        per_graph = [build_csr(graph) for graph in self._graphs]
        column_sizes = [columns.size for columns, _, _ in per_graph]
        bases = np.concatenate(([0], np.cumsum(column_sizes)))[:-1]
        self._local_columns = np.concatenate(
            [columns for columns, _, _ in per_graph]
        )
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
        if backend == "dense":
            # Build the float32 stack straight from the CSR segments (one
            # vectorised scatter per graph) instead of paying the Python
            # edge loop of Graph.adjacency_matrix per graph.
            self._adjacency = np.zeros(
                (num_graphs, n, n), dtype=np.float32
            )
            for g, (columns, starts, _) in enumerate(per_graph):
                degrees = np.diff(np.append(starts, columns.size))
                rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
                self._adjacency[g].reshape(-1)[rows * n + columns] = 1.0
            self._flags32: Optional[np.ndarray] = None
            self._counts32: Optional[np.ndarray] = None
        elif backend == "bitboard":
            # One packed kernel per graph; the dense-phase reductions
            # loop over the (few) graph groups, and the frontier phase
            # uses the shared block-diagonal CSR scatter unchanged.
            self._kernels = [BitboardKernel(graph) for graph in self._graphs]
        else:
            self._per_csr = per_graph

    @property
    def graphs(self) -> Sequence[Graph]:
        """The stacked graphs, in slot order."""
        return tuple(self._graphs)

    @property
    def backend(self) -> str:
        """The resolved backend: ``"dense"``, ``"sparse"`` or ``"bitboard"``."""
        return self._backend

    def _expand(self, rows_sel: np.ndarray, cols_sel: np.ndarray,
                slot_base: np.ndarray):
        """Neighbour entries of the selected ``(slot row, vertex)`` pairs.

        Returns ``(rows, columns)`` such that entry ``i`` says "vertex
        ``columns[i]`` of slot ``rows[i]`` has a selected neighbour" —
        the vectorised expansion of the block-diagonal CSR segments, one
        ``repeat``/``cumsum`` pass, no Python loop.
        """
        if rows_sel.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        supervertices = slot_base[rows_sel] + cols_sel
        degrees = self._super_degrees[supervertices]
        total = int(degrees.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        rows = np.repeat(rows_sel, degrees)
        ends = np.cumsum(degrees)
        flat = (
            np.repeat(self._super_starts[supervertices] - (ends - degrees),
                      degrees)
            + np.arange(total, dtype=np.int64)
        )
        return rows, self._local_columns[flat]

    def _scatter_or(self, rows_sel: np.ndarray, cols_sel: np.ndarray,
                    slot_base: np.ndarray, shape) -> np.ndarray:
        """Boolean neighbour-OR of the selected entries, scattered."""
        result = np.zeros(shape, dtype=bool)
        rows, cols = self._expand(rows_sel, cols_sel, slot_base)
        if rows.size:
            result[rows, cols] = True
        return result

    def _stage_f32(self, flags: np.ndarray, sizes: Sequence[int]):
        """``flags`` as the float32 GEMM operand, grouped per graph.

        Equal-size groups reshape the staging buffer for free; ragged
        groups (``trials % graphs != 0``) pad to the widest group.
        Returns ``(staged (graphs, width, n), equal_sizes)``.
        """
        num_graphs, n = len(self._graphs), self._n
        rows = flags.shape[0]
        width = max(sizes)
        if self._flags32 is None or self._flags32.shape[0] < num_graphs * width:
            self._flags32 = np.empty((num_graphs * width, n), dtype=np.float32)
        if rows == num_graphs * width:
            staged = self._flags32[: num_graphs * width]
            np.copyto(staged, flags)
            return staged.reshape(num_graphs, width, n), True
        staged = self._flags32[: num_graphs * width].reshape(
            num_graphs, width, n
        )
        staged[:] = 0.0
        offset = 0
        for g, size in enumerate(sizes):
            np.copyto(staged[g, :size], flags[offset:offset + size])
            offset += size
        return staged, False

    def _dense_or(
        self,
        flags: np.ndarray,
        sizes: Sequence[int],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Fault-free neighbour-OR over all slot rows, both backends."""
        num_graphs, n = len(self._graphs), self._n
        rows = flags.shape[0]
        if n == 0:
            return np.zeros((rows, 0), dtype=bool)
        if self._backend == "bitboard":
            if out is None:
                out = np.empty((rows, n), dtype=bool)
            offset = 0
            for g, size in enumerate(sizes):
                out[offset:offset + size] = self._kernels[g].neighbor_or(
                    flags[offset:offset + size]
                )
                offset += size
            return out
        if self._backend == "dense":
            staged, equal = self._stage_f32(flags, sizes)
            width = max(sizes)
            if (
                self._counts32 is None
                or self._counts32.shape[0] < num_graphs * width
            ):
                self._counts32 = np.empty(
                    (num_graphs * width, n), dtype=np.float32
                )
            counts = self._counts32[: num_graphs * width].reshape(
                num_graphs, width, n
            )
            np.matmul(staged, self._adjacency, out=counts)
            if out is None:
                out = np.empty((rows, n), dtype=bool)
            if equal:
                np.greater(
                    counts.reshape(num_graphs * width, n)[:rows], 0.0, out=out
                )
                return out
            offset = 0
            for g, size in enumerate(sizes):
                np.greater(counts[g, :size], 0.0, out=out[offset:offset + size])
                offset += size
            return out
        result = self._group_counts(flags, None, sizes) > 0
        if out is not None:
            np.copyto(out, result)
            return out
        return result

    def _group_counts(self, flags: np.ndarray, alive: Optional[np.ndarray],
                      sizes: Sequence[int]) -> np.ndarray:
        """Per-vertex beeping-neighbour counts, per-graph, optionally
        restricted to alive slot rows (dead rows stay zero)."""
        n = self._n
        rows = flags.shape[0]
        counts = np.zeros((rows, n), dtype=np.int64)
        if n == 0:
            return counts
        offset = 0
        for g, size in enumerate(sizes):
            block = slice(offset, offset + size)
            if alive is not None:
                selected = np.flatnonzero(alive[block]) + offset
                if selected.size == 0:
                    offset += size
                    continue
                sub = flags[selected]
            else:
                selected = None
                sub = flags[block]
            if self._backend == "dense":
                # float32 GEMM counts are exact small integers; stage the
                # flags through the reused buffer, not a fresh astype.
                if (
                    self._flags32 is None
                    or self._flags32.shape[0] < sub.shape[0]
                ):
                    self._flags32 = np.empty(
                        (sub.shape[0], n), dtype=np.float32
                    )
                staged = self._flags32[: sub.shape[0]]
                np.copyto(staged, sub)
                block_counts = (staged @ self._adjacency[g]).astype(np.int64)
            elif self._backend == "bitboard":
                block_counts = self._kernels[g].neighbor_counts(sub)
            else:
                columns, starts, isolated = self._per_csr[g]
                block_counts = csr_row_counts(sub, columns, starts, isolated)
            if selected is None:
                counts[block] = block_counts
            else:
                counts[selected] = block_counts
            offset += size
        return counts

    def run_armada(
        self,
        rule: ProbabilityRule,
        seed_rows: Sequence[Sequence[int]],
        validate: bool = False,
        faults: FaultModel = NO_FAULTS,
    ) -> List[FleetRun]:
        """Run every graph's trial group in one lockstep batch.

        ``seed_rows[g]`` holds graph ``g``'s counter-mode trial seeds (the
        rows may have different lengths).  Returns one :class:`FleetRun`
        per graph, bit-identical to ``FleetSimulator(graphs[g]).run_fleet(
        rule, seed_rows[g], rng_mode="counter", ...)``.
        """
        if len(seed_rows) != len(self._graphs):
            raise ValueError(
                f"need one seed row per graph, got {len(seed_rows)} rows "
                f"for {len(self._graphs)} graphs"
            )
        if not getattr(rule, "trial_parallel", False):
            raise ValueError(
                f"rule {rule.name!r} is not trial-parallel; "
                "lockstep engines need an elementwise, stateless rule"
            )
        churn_schedule = faults.churn_schedule
        if churn_schedule.is_empty():
            engine = self
        else:
            # Rebuild on the universe graphs (base + joiners, one shared
            # schedule so the stacked vertex counts stay equal) for this
            # run; churn runs are niche, so per-run construction beats
            # complicating the cached block-diagonal structures.
            engine = ArmadaSimulator(
                [
                    churn_schedule.universe_graph(graph)
                    for graph in self._graphs
                ],
                max_rounds=self._max_rounds,
                backend=self._backend,
                frontier_entries=self._frontier_entries,
            )
        return engine._run_armada(rule, seed_rows, validate, faults)

    def _run_armada(
        self,
        rule: ProbabilityRule,
        seed_rows: Sequence[Sequence[int]],
        validate: bool,
        faults: FaultModel,
    ) -> List[FleetRun]:
        """The block-diagonal loop; graphs are already the universes."""
        groups = [seed_array(row) for row in seed_rows]
        sizes = [int(group.size) for group in groups]
        if min(sizes) < 1:
            raise ValueError("every graph needs at least one seed")
        n = self._n
        num_graphs = len(self._graphs)
        total = sum(sizes)
        seeds = np.concatenate(groups)
        slot_base = np.repeat(
            np.arange(num_graphs, dtype=np.int64) * n, sizes
        )
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
        active = (
            churn.initial_active()
            if has_churn
            else np.ones((total, n), dtype=bool)
        )
        initial_row = rule.initial(n) if has_churn else None
        recovered = np.ones(total, dtype=bool) if has_churn else None
        membership = np.zeros((total, n), dtype=bool)
        probabilities = np.broadcast_to(
            rule.initial(n), (total, n)
        ).astype(np.float64, copy=True)
        beeps = np.zeros((total, n), dtype=np.int64)
        rounds = np.zeros(total, dtype=np.int64)
        # The persistent uniform buffers only matter for the live-row
        # scatter of noisy runs; fault-free rounds use the fresh block.
        uniforms = np.empty((total, n), dtype=np.float64) if noisy else None
        loss_uniforms = (
            np.empty((total, n), dtype=np.float64) if loss > 0.0 else None
        )
        spurious_uniforms = (
            np.empty((total, n), dtype=np.float64) if spurious > 0.0 else None
        )
        beep = np.empty((total, n), dtype=bool)
        joined = np.empty((total, n), dtype=bool)
        scratch = np.empty((total, n), dtype=bool)
        heard_buf = np.empty((total, n), dtype=bool)
        alive = active.any(axis=1)
        if has_churn:
            # No slot retires before the last event (shared schedule):
            # quiescent slots keep executing through the quiet gaps.
            alive[:] = True
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
                    # repair instead of raising.
                    recovered = ~alive
                    rounds[alive] = round_index
                    capped = True
                    break
                raise RuntimeError(
                    f"armada simulation exceeded {self._max_rounds} rounds"
                )
            if (
                not noisy
                and not has_churn
                and np.count_nonzero(active) <= frontier_limit
            ):
                break  # hand the tail to the frontier
            if has_churn and churn.apply_events(
                round_index, active, membership, crashed,
                lambda flags: self._dense_or(flags, sizes),
                probabilities, initial_row,
            ):
                churn.record_quiescence(round_index, ~active.any(axis=1))
            crash = crash_masks.get(round_index)
            if crash is not None:
                newly_crashed = active & crash
                crashed |= newly_crashed
                active &= ~newly_crashed
            if telemetry_on:
                active_cells += int(np.count_nonzero(active))
            if not noisy:
                # Counter draws are pure per-slot functions, so dead rows
                # may read fresh uniforms (their active mask is False);
                # skipping the live-row gather saves two copies per round.
                uniforms = counter_uniforms(seeds, round_index, DRAW_BEEP, n)
            else:
                live = np.flatnonzero(alive)
                live_seeds = seeds[live]
                uniforms[live] = counter_uniforms(
                    live_seeds, round_index, DRAW_BEEP, n
                )
                if loss > 0.0:
                    loss_uniforms[live] = counter_uniforms(
                        live_seeds, round_index, DRAW_LOSS, n
                    )
                if spurious > 0.0:
                    spurious_uniforms[live] = counter_uniforms(
                        live_seeds, round_index, DRAW_SPURIOUS, n
                    )
            # Elementwise steps run through preallocated buffers (out=):
            # at dense-phase sizes the hidden page-touch cost of fresh
            # temporaries rivals the arithmetic itself.
            np.less(uniforms, probabilities, out=beep)
            beep &= active
            if noisy:
                counts = self._group_counts(beep, alive, sizes)
                heard_true = counts > 0
                # Finished slots on still-allocated rows keep stale fault
                # uniforms; mask their heard bits like the fleet does.
                heard = faulty_observation(
                    counts, loss, spurious, loss_uniforms, spurious_uniforms
                ) & alive[:, None]
            else:
                heard_true = self._dense_or(beep, sizes, out=heard_buf)
                heard = heard_true
            probabilities = rule.update(
                probabilities, heard, active, round_index
            )
            # Second exchange stays reliable: joins come from the true OR.
            np.logical_not(heard_true, out=scratch)
            np.logical_and(beep, scratch, out=joined)
            membership |= joined
            joined_rows, joined_cols = np.nonzero(joined)
            scratch[:] = False
            rows, cols = self._expand(joined_rows, joined_cols, slot_base)
            if rows.size:
                scratch[rows, cols] = True
            beeps += beep
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
            entry_rows, entry_cols = np.nonzero(active)
            entry_p = probabilities[entry_rows, entry_cols]
            if telemetry_on:
                probes.count("engine.armada.frontier_transitions")
                probes.gauge(
                    "engine.armada.frontier_round", float(round_index)
                )
                probes.gauge(
                    "engine.armada.frontier_entries", float(entry_rows.size)
                )
            heard_buffer = np.zeros((total, n), dtype=bool)
            true_entries = np.ones(0, dtype=bool)
            # Padded slot-row index for the staged-GEMM heard fallback:
            # slot row r of graph g maps to row g * width + (r - offset_g)
            # of the (graphs, width, n) staging stack.
            if self._backend == "dense":
                width = max(sizes)
                group_offsets = np.concatenate(([0], np.cumsum(sizes)))[:-1]
                padded_row = (
                    np.arange(total, dtype=np.int64)
                    - np.repeat(group_offsets, sizes)
                    + np.repeat(
                        np.arange(num_graphs, dtype=np.int64) * width, sizes
                    )
                )
                if (
                    self._flags32 is None
                    or self._flags32.shape[0] < num_graphs * width
                ):
                    self._flags32 = np.empty(
                        (num_graphs * width, n), dtype=np.float32
                    )
            # One full-tensor pass is what a dense-phase round would pay;
            # expand while the beeping entries' neighbour lists stay
            # below it, otherwise fall back to the batched GEMM.
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
                        f"armada simulation exceeded {self._max_rounds} rounds"
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
                entry_uniforms = counter_uniforms_at(
                    state[entry_rows], entry_cols
                )
                entry_beep = entry_uniforms < entry_p
                beep_rows = entry_rows[entry_beep]
                beep_cols = entry_cols[entry_beep]
                beeps[beep_rows, beep_cols] += 1
                if (
                    self._backend == "dense"
                    and beep_rows.size * max(self._mean_degree, 1.0)
                    > expansion_budget
                ):
                    # Dense beeps (typical right after the handoff): one
                    # batched GEMM over the staged beep entries beats
                    # expanding their neighbour lists.
                    staged = self._flags32[: num_graphs * width]
                    staged[:] = 0.0
                    staged[padded_row[beep_rows], beep_cols] = 1.0
                    if (
                        self._counts32 is None
                        or self._counts32.shape[0] < num_graphs * width
                    ):
                        self._counts32 = np.empty(
                            (num_graphs * width, n), dtype=np.float32
                        )
                    counts = self._counts32[: num_graphs * width]
                    np.matmul(
                        staged.reshape(num_graphs, width, n),
                        self._adjacency,
                        out=counts.reshape(num_graphs, width, n),
                    )
                    entry_heard = (
                        counts[padded_row[entry_rows], entry_cols] > 0.0
                    )
                else:
                    # Sparse beeps: scatter the beeping entries' neighbour
                    # lists, gather back at the active entries, then
                    # un-scatter so the buffer stays all-False (cheaper
                    # than a full clear for large n).
                    rows, cols = self._expand(beep_rows, beep_cols, slot_base)
                    if rows.size:
                        heard_buffer[rows, cols] = True
                    entry_heard = heard_buffer[entry_rows, entry_cols]
                    if rows.size:
                        heard_buffer[rows, cols] = False
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
                membership[joined_rows, joined_cols] = True
                rows, cols = self._expand(joined_rows, joined_cols, slot_base)
                if rows.size:
                    heard_buffer[rows, cols] = True
                retired = entry_joined | heard_buffer[entry_rows, entry_cols]
                if rows.size:
                    heard_buffer[rows, cols] = False
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
            probes.count(f"engine.backend.{self._backend}")
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
        absent = churn.absent_mask() if has_churn else None
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
            if validate:
                for trial in range(size):
                    if not run.trial_recovered(trial):
                        continue
                    verify_mis(
                        self._graphs[g],
                        run.mis_set(trial),
                        crashed=run.crashed_set(trial),
                        absent=run.absent_set(trial),
                    )
            runs.append(run)
            offset += size
        return runs
