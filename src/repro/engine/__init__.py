"""Vectorised numpy engines for large-scale beeping simulations.

The reference runtime in :mod:`repro.beeping` is per-node and fully
instrumented — ideal for correctness, traces and the proof instrumentation,
but too slow for the paper's Figure 3 sweep (graphs up to n = 1000 with 100
trials per size).  This package provides lockstep fast engines, all
implementing the same two-exchange round semantics:

**Fleet** (:class:`FleetSimulator`)
    All ``trials`` independent runs of one graph in lockstep as
    ``(trials, n)`` tensors: one batched float32 GEMM or, once few
    vertices beep, an OR of the beepers' bit-packed adjacency rows
    (``"dense"`` backend, push or pull per round by a measured cost
    model) or one CSR ``bitwise_or.reduceat`` pass over the trials
    packed 64 to a word (``"sparse"`` backend — a round costs O(n + m),
    reaching n = 50,000 at mean degree 8) per round
    serves the whole batch, and finished trials drop out through an
    alive-mask.  The fleet is the
    one-graph armada below — one loop serves both — and one trial is the
    one-seed fleet:
    ``run_fleet(rule, [seed]).trial_run(0)`` returns its
    :class:`EngineRun`.  ``benchmarks/bench_fleet_speedup.py`` records
    the batch's margin over a seed-by-seed loop.

**Armada** (:class:`ArmadaSimulator`)
    The fleet lifted one dimension: every same-``n`` graph group of one
    experiment cell in a single ``(trials, graphs * n)`` block-diagonal
    batch — one dense OR (batched GEMM or push) or per-graph packed CSR
    OR pass per round for the *whole cell*, with an entry-level frontier
    tail in fault-free counter runs.  ``run_armada`` takes either rng mode
    (counter by default); ``benchmarks/bench_counter_rng.py`` records
    the counter armada's margin over a frozen stream-mode fleet.

**Message fleet** (:class:`MessageFleetSimulator` /
:class:`MessageArmadaSimulator`)
    The same lockstep fabric for the *message-passing* baselines (Luby's
    two variants, Métivier et al., local-minimum-id): a
    :class:`MessageRule` expresses each round as a masked
    neighbour-minimum priority contest, run on the dense full-adjacency
    sweep or the CSR ``minimum.reduceat`` pass, counter rng mode only;
    the fleet is the one-graph armada.  It keeps its own round loop: a
    round is a masked-minimum contest over ``uint64`` keys, not an
    elementwise probability update, and folding it into the armada's
    loop would make that loop branch on its caller.
    ``benchmarks/bench_message_fleet.py`` records the margin over the
    per-node loop; see :mod:`repro.engine.messages` and
    ``docs/algorithms.md``.

**Application fleet** (:class:`ApplicationFleetSimulator` /
:class:`ApplicationArmadaSimulator`)
    The MIS *applications* — iterated-peeling colouring, maximal matching
    on the array-built line graph, independent dominating sets and
    (α, α−1)-ruling sets on vectorised graph powers — as
    :class:`ApplicationRule` reductions, counter rng mode only, the
    fleet again the one-graph armada.  Every MIS layer is one run of the
    armada's own round loop, started from the still-uncoloured lanes
    with rank-compacted counter lanes.  They
    are conformance-locked bit for bit against the per-node reductions
    in :mod:`repro.applications` through the :class:`EngineMIS` adapter;
    ``benchmarks/bench_application_fleet.py`` records the margin over the
    per-node peeling loop; see :mod:`repro.engine.applications`.

Backends
--------
Every engine above asks one :class:`~repro.engine.sparse.NeighbourOperand`
for its neighbour reductions (OR, counts, masked minimum); the operand is
the one place the ``"dense"``/``"sparse"``/``"auto"`` backend is decided
and its adjacency stack or CSR built, so no round loop branches on it.

Seed-derivation contract
------------------------
Every batch derives trial seeds from one master seed with the splitmix64
chain in :mod:`repro.beeping.rng`: trial ``t`` on graph ``g`` runs with
``derive_seed(master_seed, g, t)``, and
``derive_seed_block(master_seed, g, count=trials)`` produces the same
seeds as one vectorised block.  How a seed expands into per-round
uniforms is the ``rng_mode``: in ``"stream"`` (the default of
``FleetSimulator.run_fleet`` and :func:`run_batch`) each trial draws one
``Generator.random(n)`` row per round from ``numpy``'s default PCG64; in
``"counter"`` (the default of ``ArmadaSimulator.run_armada``,
``run_rule_armada``, ``run_fleet_trials`` and sweep cells, and the only
mode of the message and application engines) every uniform is a
stateless :func:`repro.beeping.rng.counter_uniforms` value, computed
blockwise with no generator objects at all.  Because all engines consume
randomness identically within a mode, **engine choice never changes
results**: every fleet backend and the armada agree bit for bit on round
counts, MIS membership and beep counts under a shared seed and mode, and
a batch agrees with its seed-by-seed one-seed runs
(``tests/engine/test_conformance.py`` enforces both); the per-node
reference engine agrees distributionally.  :func:`run_batch` and the
sweep's ``run_fleet_trials`` reach every engine through one function,
:func:`~repro.engine.batch.run_rule_armada` (one armada of the rule's
fabric), guarded by :func:`~repro.engine.batch.check_fleet_run`: message
and application rules are counter-only and fault-free.  Every engine run
ends in an MIS check, so no entry point returns an unverified trial.
"""

from repro.engine.rules import (
    FeedbackRule,
    GlobalScheduleRule,
    ProbabilityRule,
    SweepRule,
)
from repro.engine.simulator import EngineRun
from repro.engine.fleet import ArmadaSimulator, FleetRun, FleetSimulator
from repro.engine.messages import (
    LocalMinimumRule,
    LubyPermutationRule,
    LubyProbabilityRule,
    MessageArmadaSimulator,
    MessageFleetRun,
    MessageFleetSimulator,
    MessageRule,
    MetivierRule,
)
from repro.engine.applications import (
    APPLICATION_RULES,
    ApplicationArmadaSimulator,
    ApplicationFleetRun,
    ApplicationFleetSimulator,
    ApplicationRule,
    ColoringRule,
    DominatingSetRule,
    EngineMIS,
    MatchingRule,
    RulingSetRule,
)
from repro.engine.batch import BatchResult, run_batch

__all__ = [
    "APPLICATION_RULES",
    "ApplicationArmadaSimulator",
    "ApplicationFleetRun",
    "ApplicationFleetSimulator",
    "ApplicationRule",
    "ArmadaSimulator",
    "BatchResult",
    "ColoringRule",
    "DominatingSetRule",
    "EngineMIS",
    "EngineRun",
    "FeedbackRule",
    "FleetRun",
    "FleetSimulator",
    "GlobalScheduleRule",
    "LocalMinimumRule",
    "MatchingRule",
    "LubyPermutationRule",
    "LubyProbabilityRule",
    "MessageArmadaSimulator",
    "MessageFleetRun",
    "MessageFleetSimulator",
    "MessageRule",
    "MetivierRule",
    "ProbabilityRule",
    "RulingSetRule",
    "SweepRule",
    "run_batch",
]
