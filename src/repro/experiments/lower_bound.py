"""The Theorem 1 experiment: globally scheduled algorithms on the
disjoint-clique family.

Theorem 1 proves that *any* preset global probability sequence needs
``Ω(log² n)`` rounds on the family of ``copies`` copies of ``K_d`` for
``d = 1..side``.  The experiment runs the sweep algorithm (the natural
preset sequence) and the feedback algorithm on the same family and reports
rounds vs ``n``: the sweep series grows like ``log² n`` while the feedback
series — whose *local* probabilities can sit near ``1/d`` in each clique
simultaneously — grows like ``log n``.  This is the empirical face of the
paper's separation result.

Execution goes through the sweep orchestrator (:mod:`repro.sweep`): each
(side, rule) point is one fleet-engine ``family="theorem1"`` cell, so the
experiment shares the trial-parallel fleet speedup and — with
``cache_dir`` set — the content-addressed result store with every other
figure driver.  Each cell derives its own master seed, and results are
independent of ``jobs``, ``cache_dir`` and shard width.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.beeping.rng import derive_seed
from repro.experiments.records import ExperimentResult, SeriesPoint

PathLike = Union[str, Path]

_RULE_NAMES = ("afek-sweep", "feedback")


def theorem1_experiment(
    sides: Sequence[int] = (4, 6, 8, 10, 12),
    trials: int = 30,
    copies: int = 0,
    master_seed: int = 1101,
    validate: bool = False,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
    shard_trials: int = 32,
) -> ExperimentResult:
    """Rounds of sweep vs feedback on the Theorem 1 clique family.

    ``sides[i]`` plays the role of ``n^(1/3)``; the graph for side ``s``
    has ``copies·s(s+1)/2`` vertices (``copies`` defaults to ``s``).
    ``jobs`` shards the sweep over worker processes; ``cache_dir``
    enables the on-disk result store.
    """
    # Imported here, not at module scope: repro.sweep's modules consume
    # repro.experiments.records/runner, so a top-level import would cycle.
    from repro.sweep.aggregate import cell_point
    from repro.sweep.orchestrator import run_sweep
    from repro.sweep.spec import CellSpec, SweepSpec

    cells: List[CellSpec] = []
    for side_index, side in enumerate(sides):
        for rule_index, rule_name in enumerate(_RULE_NAMES):
            cells.append(
                CellSpec(
                    algorithm=rule_name,
                    engine="fleet",
                    family="theorem1",
                    side=side,
                    copies=copies,
                    trials=trials,
                    master_seed=derive_seed(master_seed, side_index, rule_index),
                    validate=validate,
                )
            )
    spec = SweepSpec(tuple(cells), shard_trials=shard_trials)
    sweep = run_sweep(spec, store=cache_dir, jobs=jobs)
    points: List[SeriesPoint] = [
        cell_point(
            cell,
            sweep.rows(cell),
            "rounds",
            extra={"side": float(cell.side)},
        )
        for cell in cells
    ]
    return ExperimentResult(
        experiment="theorem1",
        points=points,
        master_seed=master_seed,
        parameters={
            "sides": list(sides),
            "copies": copies,
            "trials": trials,
        },
        report=sweep.report,
    )
