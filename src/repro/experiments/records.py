"""Result records and their JSON/CSV serialisation.

Every experiment driver returns a list of :class:`SeriesPoint` wrapped in an
:class:`ExperimentResult`; the ``repro paper`` CSVs (``docs/paper.md``,
pinned in ``tests/experiments/golden_paper/``) are generated from these
records, and the benchmarks print them, so paper-vs-measured comparisons
always go through one well-defined schema.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.sweep.orchestrator import SweepReport


@dataclass(frozen=True)
class SeriesPoint:
    """One point of one experimental series.

    ``x`` is the independent variable (usually the number of nodes ``n``),
    ``mean``/``std`` summarise the dependent variable over ``trials``
    independent runs, and ``series`` names the curve (e.g. ``"feedback"``).
    """

    series: str
    x: float
    mean: float
    std: float
    trials: int
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    """A named collection of series points plus provenance metadata.

    ``report`` is the :class:`~repro.sweep.orchestrator.SweepReport` of
    the sweep that computed the points (``None`` for drivers that run no
    sweep).  It is runtime-only: equality and ``repr`` ignore it, and the
    JSON and CSV writers never emit it.
    """

    experiment: str
    points: List[SeriesPoint]
    master_seed: int
    parameters: Dict[str, Any] = field(default_factory=dict)
    report: Optional[SweepReport] = field(
        default=None, compare=False, repr=False
    )

    def series_names(self) -> List[str]:
        """Distinct series names, in first-appearance order."""
        names: List[str] = []
        for point in self.points:
            if point.series not in names:
                names.append(point.series)
        return names

    def series(self, name: str) -> List[SeriesPoint]:
        """All points of one series, sorted by x."""
        return sorted(
            (p for p in self.points if p.series == name),
            key=lambda p: p.x,
        )

    def xs(self, name: str) -> List[float]:
        """The x values of one series, sorted."""
        return [p.x for p in self.series(name)]

    def means(self, name: str) -> List[float]:
        """The means of one series, in x order."""
        return [p.mean for p in self.series(name)]


def results_to_json(result: ExperimentResult, indent: int = 2) -> str:
    """Serialise a result (round-trippable; schema mirrors the dataclasses)."""
    payload = {
        "experiment": result.experiment,
        "master_seed": result.master_seed,
        "parameters": result.parameters,
        "points": [asdict(point) for point in result.points],
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


def results_from_json(text: str) -> ExperimentResult:
    """Inverse of :func:`results_to_json`."""
    payload = json.loads(text)
    points = [
        SeriesPoint(
            series=p["series"],
            x=p["x"],
            mean=p["mean"],
            std=p["std"],
            trials=p["trials"],
            extra=p.get("extra", {}),
        )
        for p in payload["points"]
    ]
    return ExperimentResult(
        experiment=payload["experiment"],
        points=points,
        master_seed=payload["master_seed"],
        parameters=payload.get("parameters", {}),
    )


def results_to_csv(
    result: ExperimentResult,
    extra_columns: Sequence[str] = (),
) -> str:
    """Flat CSV with one row per point (series,x,mean,std,trials).

    ``extra_columns`` appends named ``point.extra`` entries as additional
    columns (blank where a point lacks the key), so drivers that carry
    per-point extras — optimum ratios, ablation scores — export them
    without a bespoke writer.  The default output is unchanged.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["series", "x", "mean", "std", "trials", *extra_columns])
    for point in result.points:
        row: List[Any] = [
            point.series, point.x, point.mean, point.std, point.trials
        ]
        for name in extra_columns:
            value = point.extra.get(name)
            row.append("" if value is None else value)
        writer.writerow(row)
    return buffer.getvalue()
