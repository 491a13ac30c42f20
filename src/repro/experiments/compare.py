"""The paper's central comparison, as one cached sweepable workload.

The paper positions its beeping MIS rules against "the elegant randomized
algorithm … generally known as Luby's algorithm" and the
optimal-bit-complexity variant of Métivier et al.; its headline trade-off
is *rounds versus communication*: a beep is one bit per incident channel
per round, a message-passing value O(log n) bits.  This driver turns that
comparison into a reproducible grid: every (algorithm, workload, size)
point is one :class:`~repro.sweep.spec.CellSpec` executed through the
sharded, content-addressed sweep orchestrator, so

- beeping rules, message-passing kernels and the MIS application kernels
  (``mis-coloring``, ``mis-matching``, ``mis-dominating``,
  ``mis-ruling-3`` — see :mod:`repro.engine.applications`; their
  ``mis-size`` axis reports the application's output size) all run
  vectorised — the trial-parallel fleet/armada engines, the
  message-passing lockstep engines (:mod:`repro.engine.messages`), and
  the application lockstep engines respectively; only algorithms outside
  :data:`~repro.sweep.spec.FLEET_RULES` (e.g. ``greedy``) fall back to
  the per-node reference engine;
- all algorithms of one size share one master seed, so (in reference
  mode) they see identical graphs, and reruns against a warm cache
  execute zero simulations.

``repro compare`` is the CLI front-end; it prints the rounds /
bit-complexity table plus both plots.  See ``docs/algorithms.md`` for
the per-algorithm accounting conventions the table relies on.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.beeping.faults import ChurnSchedule, FaultModel
from repro.beeping.rng import derive_seed
from repro.engine.batch import check_fleet_run
from repro.experiments.records import ExperimentResult, SeriesPoint
from repro.experiments.tables import format_table
from repro.sweep.aggregate import churn_extras, outcome_value, summarize
from repro.sweep.orchestrator import run_sweep
from repro.sweep.spec import (
    CHURN_REFERENCE_ALGORITHMS,
    FLEET_RULES,
    CellSpec,
    SweepSpec,
)
from repro.sweep.store import PathLike

#: The paper-facing default panel: the three beeping rules' fleet
#: representatives vs the four message-passing baselines.
DEFAULT_ALGORITHMS = (
    "feedback",
    "afek-sweep",
    "luby-permutation",
    "luby-probability",
    "metivier",
    "local-minimum-id",
)

_FAMILIES = ("gnp", "grid")


def _fleet_runs(algorithm: str, faults: FaultModel) -> bool:
    """Whether the fleet engines run ``algorithm`` under ``faults``."""
    if algorithm not in FLEET_RULES:
        return False
    try:
        check_fleet_run(FLEET_RULES[algorithm](), faults, "counter")
    except ValueError:
        return False
    return True


@dataclass
class ComparisonResult:
    """The comparison grid summarised along both paper axes.

    ``rounds`` and ``bits_per_node`` are ordinary
    :class:`ExperimentResult` records (one series per algorithm ×
    workload, x = graph size), so the existing table/plot/CSV consumers
    apply; every ``rounds`` point additionally carries the cell's mean
    ``messages``, ``bits`` and ``bits_per_message`` in ``extra``.  Both
    records carry the one sweep's ``report``.
    """

    rounds: ExperimentResult
    bits_per_node: ExperimentResult

    def table(self) -> str:
        """The paper-style rounds / bit-complexity comparison table.

        Under churn two extra columns appear — mean self-repair rounds
        and the recovered fraction — turning the table into the
        beeping-vs-Luby repair comparison; without churn the layout is
        byte-identical to the fault-free one.
        """
        churned = any("repair" in point.extra for point in self.rounds.points)
        headers = [
            "algorithm", "n", "rounds", "std",
            "msgs/node", "bits/node", "bits/msg",
        ]
        if churned:
            headers += ["repair", "recovered"]
        rows = []
        for point in self.rounds.points:
            n = max(point.x, 1.0)
            messages = point.extra["messages"]
            bits = point.extra["bits"]
            row = [
                point.series,
                f"{point.x:g}",
                f"{point.mean:.2f}",
                f"{point.std:.2f}",
                f"{messages / n:.1f}",
                f"{bits / n:.1f}",
                f"{point.extra['bits_per_message']:.2f}",
            ]
            if churned:
                row += [
                    f"{point.extra.get('repair', 0.0):.2f}",
                    f"{point.extra.get('recovered', 1.0):.2f}",
                ]
            rows.append(row)
        return format_table(headers, rows)


def comparison_csv(result: ComparisonResult) -> str:
    """Flat CSV of the grid: one row per (series, x, quantity)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["series", "x", "quantity", "mean", "std", "trials"])
    for quantity, experiment in (
        ("rounds", result.rounds),
        ("bits_per_node", result.bits_per_node),
    ):
        for point in experiment.points:
            writer.writerow(
                [point.series, point.x, quantity, point.mean, point.std,
                 point.trials]
            )
    return buffer.getvalue()


def comparison_experiment(
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    families: Sequence[str] = ("gnp",),
    sizes: Sequence[int] = (50, 100, 200),
    edge_probability: float = 0.5,
    trials: int = 32,
    graphs: int = 1,
    master_seed: int = 2013,
    shard_trials: int = 32,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
    engine: str = "auto",
    churn: Sequence[Tuple[Any, ...]] = (),
) -> ComparisonResult:
    """Sweep algorithms × workloads × sizes and summarise both axes.

    ``families`` names the workloads (``"gnp"`` draws ``G(n, p)`` at each
    size; ``"grid"`` reads each size as a side length).  ``engine`` is
    ``"auto"`` (fleet for every :data:`FLEET_RULES` algorithm, reference
    otherwise), or ``"fleet"``/``"reference"`` to force one engine for
    the whole grid.  All algorithms of one (family, size) cell group
    share one derived master seed, making the comparison paired where
    the engine allows it.  Results flow through the sharded orchestrator:
    pass ``cache_dir`` to make regeneration free and extension
    incremental.

    ``churn`` applies one :func:`~repro.beeping.faults.ChurnSchedule`
    (``to_tuples``-shaped events) to every cell, turning the grid into
    the beeping-vs-Luby self-repair comparison: every ``rounds`` point
    gains ``repair`` / ``recovered`` extras and the table two matching
    columns.  Only churn-honouring algorithms are allowed then — beep
    rules on the fleet fabric, plus the reference implementations in
    :data:`~repro.sweep.spec.CHURN_REFERENCE_ALGORITHMS` (the message
    kernels reject faults, so ``auto`` routes e.g. ``luby-permutation``
    to the reference engine under churn).
    """
    if not algorithms:
        raise ValueError("need at least one algorithm")
    if not sizes:
        raise ValueError("need at least one size")
    if engine not in ("auto", "fleet", "reference"):
        raise ValueError(
            f"engine must be 'auto', 'fleet' or 'reference', got {engine!r}"
        )
    churn = tuple(tuple(event) for event in churn)
    faults = FaultModel(churn_schedule=ChurnSchedule.from_events(churn))
    if churn:
        for algorithm in algorithms:
            if (
                not _fleet_runs(algorithm, faults)
                and algorithm not in CHURN_REFERENCE_ALGORITHMS
            ):
                raise ValueError(
                    f"algorithm {algorithm!r} ignores churn schedules; "
                    "churn comparisons support beep fleet rules and "
                    f"{sorted(CHURN_REFERENCE_ALGORITHMS)}"
                )
    for family in families:
        if family not in _FAMILIES:
            raise ValueError(
                f"family must be one of {_FAMILIES}, got {family!r}"
            )
    multi_family = len(families) > 1
    cells: List[Tuple[str, CellSpec]] = []
    for family_index, family in enumerate(families):
        for size_index, size in enumerate(sizes):
            seed = derive_seed(master_seed, family_index, size_index)
            if family == "gnp":
                workload = {
                    "family": "gnp",
                    "n": size,
                    "edge_probability": edge_probability,
                }
            else:
                workload = {"family": "grid", "rows": size, "cols": size}
            for algorithm in algorithms:
                cell_engine = engine
                if engine == "auto":
                    # Message/application kernels reject faults; their
                    # churn comparison runs on the reference engine.
                    cell_engine = (
                        "fleet"
                        if _fleet_runs(algorithm, faults)
                        else "reference"
                    )
                label = (
                    f"{algorithm}/{family}" if multi_family else algorithm
                )
                cells.append(
                    (
                        label,
                        CellSpec(
                            algorithm=algorithm,
                            engine=cell_engine,
                            trials=trials,
                            graphs=graphs,
                            master_seed=seed,
                            churn=churn,
                            **workload,
                        ),
                    )
                )
    spec = SweepSpec(tuple(cell for _, cell in cells),
                     shard_trials=shard_trials)
    sweep = run_sweep(spec, store=cache_dir, jobs=jobs)
    rounds_points: List[SeriesPoint] = []
    bits_points: List[SeriesPoint] = []
    for label, cell in cells:
        rows = sweep.rows(cell)
        n = max(cell.num_vertices, 1)
        mean_rounds, std_rounds = summarize(
            [outcome_value(row, "rounds") for row in rows]
        )
        mean_messages, _ = summarize(
            [outcome_value(row, "messages") for row in rows]
        )
        mean_bits, _ = summarize(
            [outcome_value(row, "bits") for row in rows]
        )
        mean_bpn, std_bpn = summarize(
            [outcome_value(row, "bits") / n for row in rows]
        )
        extra = {
            "messages": mean_messages,
            "bits": mean_bits,
            "bits_per_message": (
                mean_bits / mean_messages if mean_messages else 0.0
            ),
        }
        if churn:
            extra.update(churn_extras(rows))
        rounds_points.append(
            SeriesPoint(
                series=label,
                x=float(cell.num_vertices),
                mean=mean_rounds,
                std=std_rounds,
                trials=len(rows),
                extra=extra,
            )
        )
        bits_points.append(
            SeriesPoint(
                series=label,
                x=float(cell.num_vertices),
                mean=mean_bpn,
                std=std_bpn,
                trials=len(rows),
            )
        )
    parameters = {
        "algorithms": list(algorithms),
        "families": list(families),
        "sizes": list(sizes),
        "edge_probability": edge_probability,
        "trials": trials,
        "graphs": graphs,
        "engine": engine,
        "churn": [list(event) for event in churn],
    }
    return ComparisonResult(
        rounds=ExperimentResult(
            experiment="compare-rounds",
            points=rounds_points,
            master_seed=master_seed,
            parameters=parameters,
            report=sweep.report,
        ),
        bits_per_node=ExperimentResult(
            experiment="compare-bits",
            points=bits_points,
            master_seed=master_seed,
            parameters=parameters,
            report=sweep.report,
        ),
    )
