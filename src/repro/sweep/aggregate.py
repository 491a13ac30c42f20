"""From stored trial rows back to the experiment record schema.

The sweep subsystem deliberately stores *rows* (one
:class:`~repro.experiments.runner.TrialOutcome` per trial) rather than
aggregates, so any summary can be recomputed from cache without rerunning
simulations.  This module is the bridge to the existing
:class:`~repro.experiments.records.SeriesPoint` /
:class:`~repro.experiments.records.ExperimentResult` schema —
``records.py``, the tables and the report generator stay unchanged
consumers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.records import SeriesPoint
from repro.experiments.runner import TrialOutcome
from repro.sweep.spec import CellSpec

#: Quantities a cell's rows can be summarised over.  ``messages`` and
#: ``bits`` are the communication-complexity axes of the paper's
#: beeping-vs-message-passing comparison: a beep costs one 1-bit message
#: per incident channel, a numeric value O(log n) bits per channel.
#: ``repair`` is the mean self-repair time over a trial's resolved churn
#: events (0.0 when the trial has none) and ``recovered`` is 1.0/0.0 per
#: trial, so its mean over a cell is the recovered fraction.
QUANTITIES = ("rounds", "beeps", "mis_size", "messages", "bits", "repair", "recovered")


def outcome_value(outcome: TrialOutcome, quantity: str) -> float:
    """One row's value of the requested quantity."""
    if quantity == "rounds":
        return float(outcome.rounds)
    if quantity == "beeps":
        return float(outcome.mean_beeps_per_node)
    if quantity == "mis_size":
        return float(outcome.mis_size)
    if quantity == "messages":
        return float(outcome.messages)
    if quantity == "bits":
        return float(outcome.bits)
    if quantity == "repair":
        resolved = [r for r in outcome.repair_rounds if r >= 0]
        if not resolved:
            return 0.0
        return sum(resolved) / len(resolved)
    if quantity == "recovered":
        return 1.0 if outcome.recovered else 0.0
    raise ValueError(f"quantity must be one of {QUANTITIES}, got {quantity!r}")


def churn_extras(rows: Sequence[TrialOutcome]) -> Dict[str, float]:
    """A churned cell's ``repair`` and ``recovered`` means over its rows.

    An empty cell reads as no repair time (0.0), fully recovered (1.0).
    """
    repairs = [outcome_value(row, "repair") for row in rows]
    recovered = [outcome_value(row, "recovered") for row in rows]
    return {
        "repair": sum(repairs) / len(repairs) if repairs else 0.0,
        "recovered": sum(recovered) / len(recovered) if recovered else 1.0,
    }


def summarize(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and sample standard deviation (0.0 below two values)."""
    if not values:
        raise ValueError("cannot summarize an empty value list")
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, variance ** 0.5


def cell_point(
    cell: CellSpec,
    rows: List[TrialOutcome],
    quantity: str,
    series: Optional[str] = None,
    extra: Optional[Dict[str, float]] = None,
    x: Optional[float] = None,
) -> SeriesPoint:
    """Summarise one cell's rows as one :class:`SeriesPoint`.

    The series name defaults to the cell's algorithm and ``x`` to its
    graph size, which is what every figure driver wants; drivers whose
    independent variable is not the size (e.g. the robustness grid's
    spurious-beep rate) override ``x``.
    """
    values = [outcome_value(row, quantity) for row in rows]
    mean, std = summarize(values)
    return SeriesPoint(
        series=cell.algorithm if series is None else series,
        x=float(cell.num_vertices) if x is None else float(x),
        mean=mean,
        std=std,
        trials=len(values),
        extra=dict(extra) if extra else {},
    )
