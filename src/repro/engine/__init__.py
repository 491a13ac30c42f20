"""Vectorised numpy engines for large-scale beeping simulations.

The reference runtime in :mod:`repro.beeping` is per-node and fully
instrumented — ideal for correctness, traces and the proof instrumentation,
but too slow for the paper's Figure 3 sweep (graphs up to n = 1000 with 100
trials per size).  This package provides lockstep fast engines, all
implementing the same two-exchange round semantics:

**Fleet** (:class:`FleetSimulator`)
    All ``trials`` independent runs of one graph in lockstep as
    ``(trials, n)`` tensors: one batched float32 GEMM (``"dense"``
    backend), one CSR ``reduceat`` pass (``"sparse"`` backend — a round
    costs O(n + m), reaching n = 50,000 at mean degree 8), or one packed
    ``uint64`` AND/OR pass (``"bitboard"`` backend,
    :class:`BitboardKernel`) per round serves the whole batch, and
    finished trials drop out through an alive-mask (the bitboard backend
    compacts them away entirely).  One trial is the one-seed fleet:
    ``run_fleet(rule, [seed]).trial_run(0)`` returns its
    :class:`EngineRun`.  ``benchmarks/bench_fleet_speedup.py`` records
    the batch's margin over a seed-by-seed loop and
    ``benchmarks/bench_bitboard_fleet.py`` the bitboard margin over the
    dense backend.

**Armada** (:class:`ArmadaSimulator`)
    The fleet lifted one dimension: every same-``n`` graph group of one
    experiment cell in a single ``(trials, graphs * n)`` block-diagonal
    batch — one batched GEMM or block-diagonal CSR ``reduceat`` pass per
    round for the *whole cell*.  Counter rng mode only;
    ``benchmarks/bench_counter_rng.py`` records the margin over the
    per-graph stream path.

**Message fleet** (:class:`MessageFleetSimulator` /
:class:`MessageArmadaSimulator`)
    The same lockstep fabric for the *message-passing* baselines (Luby's
    two variants, Métivier et al., local-minimum-id): a
    :class:`MessageRule` expresses each round as a masked
    neighbour-minimum priority contest, run on the dense full-adjacency
    sweep or the CSR ``minimum.reduceat`` pass, counter rng mode only.
    ``benchmarks/bench_message_fleet.py`` records the margin over the
    per-node loop; see :mod:`repro.engine.messages` and
    ``docs/algorithms.md``.

**Application fleet** (:class:`ApplicationFleetSimulator` /
:class:`ApplicationArmadaSimulator`)
    The MIS *applications* — iterated-peeling colouring, maximal matching
    on the array-built line graph, independent dominating sets and
    (α, α−1)-ruling sets on vectorised graph powers — as
    :class:`ApplicationRule` reductions on the same lockstep fabric,
    counter rng mode only.  They are conformance-locked bit for bit
    against the per-node reductions in :mod:`repro.applications` through
    the :class:`EngineMIS` adapter;
    ``benchmarks/bench_application_fleet.py`` records the margin over the
    per-node peeling loop; see :mod:`repro.engine.applications`.

Seed-derivation contract
------------------------
Every batch derives trial seeds from one master seed with the splitmix64
chain in :mod:`repro.beeping.rng`: trial ``t`` on graph ``g`` runs with
``derive_seed(master_seed, g, t)``, and
``derive_seed_block(master_seed, g, count=trials)`` produces the same
seeds as one vectorised block.  How a seed expands into per-round
uniforms is the ``rng_mode``: in ``"stream"`` (the default) each trial
draws one ``Generator.random(n)`` row per round from ``numpy``'s default
PCG64; in ``"counter"`` every uniform is a stateless
:func:`repro.beeping.rng.counter_uniforms` value, computed blockwise with
no generator objects at all.  Because all engines consume randomness
identically within a mode, **engine choice never changes results**:
every fleet backend and the armada agree bit for bit on round counts,
MIS membership and beep counts under a shared seed and mode, and a batch
agrees with its seed-by-seed one-seed runs
(``tests/engine/test_conformance.py`` enforces both); the per-node
reference engine agrees distributionally.  :func:`run_batch` runs every
batch on the fleet; the rule must be ``trial_parallel``.
"""

from repro.engine.rules import (
    FeedbackRule,
    GlobalScheduleRule,
    ProbabilityRule,
    SweepRule,
)
from repro.engine.simulator import EngineRun
from repro.engine.bitboard import BitboardKernel
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
    "BitboardKernel",
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
