"""ASCII table rendering for experiment reports.

The benchmarks print their measured-vs-paper comparisons through this one
formatter so reports (``docs/paper.md``) and terminal output look the
same.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.records import ExperimentResult


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """A plain monospace table with a header separator.

    Column widths adapt to content; all cells are stringified with
    ``str``.  Floats should be pre-formatted by the caller.
    """
    if not headers:
        raise ValueError("headers must be non-empty")
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row with {len(row)} cells does not match "
                f"{len(headers)} headers"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def render(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    lines = [render(list(headers))]
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(render(row) for row in str_rows)
    return "\n".join(lines)


def format_experiment(
    result: ExperimentResult,
    precision: int = 2,
    extra_columns: Sequence[str] = (),
) -> str:
    """Render an :class:`ExperimentResult` as one table per x value.

    ``extra_columns`` appends named ``point.extra`` entries as columns
    (blank where a point lacks the key), mirroring
    :func:`~repro.experiments.records.results_to_csv`.
    """
    headers = ["series", "x", "mean", "std", "trials", *extra_columns]
    rows = [
        [
            p.series,
            f"{p.x:g}",
            f"{p.mean:.{precision}f}",
            f"{p.std:.{precision}f}",
            p.trials,
            *(
                "" if p.extra.get(name) is None
                else f"{p.extra[name]:.{precision}f}"
                for name in extra_columns
            ),
        ]
        for p in result.points
    ]
    title = f"experiment: {result.experiment} (seed={result.master_seed})"
    return title + "\n" + format_table(headers, rows)
