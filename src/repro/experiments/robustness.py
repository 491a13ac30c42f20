"""Robustness sweeps: the Section 6 fault grid, cached and fleet-fast.

The paper claims the feedback algorithm is "highly robust"; this driver
turns that claim into a reproducible grid.  Every (beep loss, spurious
beep) combination is one :class:`~repro.sweep.spec.CellSpec` executed
through the sharded sweep orchestrator, so a robustness grid

- runs on the trial-parallel fleet engine by default (vectorised fault
  masks — see ``docs/robustness.md``), orders of magnitude faster than
  the per-node reference channel;
- lands in the content-addressed result store: fault parameters are part
  of every shard's cache key, so regenerating a grid against a warm cache
  executes zero simulations and extending it only runs the new cells.

All cells share one master seed, so fault levels are compared on
identical graphs and identical clean randomness (paired comparison); only
the injected faults differ.  ``repro robustness`` is the CLI front-end.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.experiments.records import ExperimentResult
from repro.sweep.aggregate import cell_point, churn_extras
from repro.sweep.orchestrator import run_sweep
from repro.sweep.spec import CellSpec, SweepSpec
from repro.sweep.store import PathLike


def robustness_grid(
    algorithm: str = "feedback",
    engine: str = "fleet",
    n: int = 100,
    edge_probability: float = 0.5,
    loss_probabilities: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    spurious_probabilities: Sequence[float] = (0.0, 0.05, 0.1),
    crashes: Sequence[Tuple[int, int]] = (),
    churn: Sequence[Tuple[Any, ...]] = (),
    trials: int = 32,
    graphs: int = 1,
    master_seed: int = 1603,
    quantity: str = "rounds",
    shard_trials: int = 32,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
) -> ExperimentResult:
    """Sweep a fault grid and summarise it as one experiment record.

    One series per beep-loss level, with the spurious-beep probability on
    the x-axis — the natural "rounds degrade gracefully with noise"
    figure.  ``crashes`` (``(round, vertex)`` pairs) and ``churn``
    (:func:`~repro.beeping.faults.ChurnSchedule.to_tuples`-shaped events)
    apply to *every* cell, so the grid can also be run entirely under a
    crash or churn schedule; with churn the per-cell points additionally
    carry ``repair`` (mean self-repair rounds over resolved events) and
    ``recovered`` (fraction of trials that reconverged) in their extras.
    Returns the summarised :class:`ExperimentResult`; its ``report``
    carries the orchestrator's total/executed/cached shard counts.
    """
    if not loss_probabilities or not spurious_probabilities:
        raise ValueError("need at least one loss and one spurious level")
    cells = []
    for loss in loss_probabilities:
        for spurious in spurious_probabilities:
            cells.append(
                CellSpec(
                    algorithm=algorithm,
                    engine=engine,
                    family="gnp",
                    n=n,
                    edge_probability=edge_probability,
                    trials=trials,
                    graphs=graphs,
                    master_seed=master_seed,
                    beep_loss=loss,
                    spurious_beep=spurious,
                    crashes=tuple(crashes),
                    churn=tuple(churn),
                )
            )
    spec = SweepSpec(tuple(cells), shard_trials=shard_trials)
    sweep = run_sweep(spec, store=cache_dir, jobs=jobs)
    points = []
    for cell in cells:
        rows = sweep.rows(cell)
        extra = {"loss": cell.beep_loss, "spurious": cell.spurious_beep}
        if cell.churn:
            extra.update(churn_extras(rows))
        points.append(
            cell_point(
                cell,
                rows,
                quantity,
                series=f"loss={cell.beep_loss}",
                x=cell.spurious_beep,
                extra=extra,
            )
        )
    return ExperimentResult(
        experiment="robustness",
        points=points,
        master_seed=master_seed,
        parameters={
            "algorithm": algorithm,
            "engine": engine,
            "n": n,
            "edge_probability": edge_probability,
            "loss_probabilities": list(loss_probabilities),
            "spurious_probabilities": list(spurious_probabilities),
            "crashes": [list(pair) for pair in crashes],
            "churn": [list(event) for event in churn],
            "trials": trials,
            "graphs": graphs,
            "quantity": quantity,
        },
        report=sweep.report,
    )
