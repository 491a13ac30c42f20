"""Self-contained HTML rendering of the paper pipeline's artefacts.

One :func:`render_paper_report` call turns the pipeline's regenerated
experiments into a single HTML document with **no external assets**:
CSS is inlined, every figure is an inline SVG
(:func:`~repro.viz.svg_plots.svg_line_plot`), and every dynamic string
passes through ``html.escape``.  The renderer is a pure function of its
inputs — dictionaries are emitted in sorted order, numbers with fixed
``%g`` formatting, and **no timestamp, path, duration or cache counter
appears unless passed in** — so regenerating the same results yields
byte-identical HTML.  The run stamp is opt-in via the explicit ``now=``
parameter; the pipeline omits it by default precisely so that warm
reruns can be compared with ``cmp``.

Sections: provenance (versions, seeds, spec hashes), drift-vs-golden
verdicts, one block per experiment (description, SVG plot, value
table), and the committed ``BENCH_*.json`` trajectory.
"""

from __future__ import annotations

import html
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence, Tuple

from repro.experiments.records import ExperimentResult
from repro.viz.svg_plots import svg_line_plot

if TYPE_CHECKING:
    from repro.experiments.paper import ExperimentArtefact

#: Inline stylesheet — the report's only styling, no external fetches.
_CSS = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial,
       sans-serif; margin: 2em auto; max-width: 62em; color: #222;
       line-height: 1.45; padding: 0 1em; }
h1 { border-bottom: 2px solid #1f77b4; padding-bottom: 0.2em; }
h2 { margin-top: 1.6em; color: #1a4f7a; }
table { border-collapse: collapse; margin: 0.8em 0; font-size: 0.92em; }
th, td { border: 1px solid #d0d0d0; padding: 0.3em 0.7em;
         text-align: right; }
th { background: #f0f4f8; }
td:first-child, th:first-child { text-align: left; }
code { background: #f5f5f5; padding: 0.1em 0.3em; font-size: 0.92em; }
.badge { display: inline-block; padding: 0.1em 0.6em; border-radius: 3px;
         font-weight: bold; font-size: 0.85em; }
.badge.pass { background: #d4edda; color: #1e7b34; }
.badge.drift { background: #f8d7da; color: #9c1c28; }
.badge.missing { background: #fff3cd; color: #8a6d1a; }
.badge.skip { background: #e2e3e5; color: #555; }
.meta { color: #666; font-size: 0.88em; }
.stamp { color: #888; font-size: 0.85em; }
svg.plot { max-width: 100%; height: auto; }
""".strip()


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _num(value: float) -> str:
    return f"{value:g}"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A plain table; every cell is already-escaped text."""
    parts = ["<table>", "<thead><tr>"]
    parts.extend(f"<th>{cell}</th>" for cell in headers)
    parts.append("</tr></thead><tbody>")
    for row in rows:
        parts.append("<tr>")
        parts.extend(f"<td>{cell}</td>" for cell in row)
        parts.append("</tr>")
    parts.append("</tbody></table>")
    return "".join(parts)


def result_table(
    result: ExperimentResult, extra_columns: Sequence[str] = ()
) -> str:
    """An experiment's points as an HTML table (extras as columns)."""
    headers = [
        _esc(h) for h in ("series", "x", "mean", "std", "trials",
                          *extra_columns)
    ]
    rows = []
    for point in result.points:
        row = [
            _esc(point.series),
            _esc(_num(point.x)),
            _esc(_num(point.mean)),
            _esc(_num(point.std)),
            _esc(point.trials),
        ]
        for name in extra_columns:
            value = point.extra.get(name)
            row.append("" if value is None else _esc(_num(value)))
        rows.append(row)
    return _table(headers, rows)


def _badge(status: str) -> str:
    return (
        f'<span class="badge {_esc(status.lower())}">{_esc(status)}</span>'
    )


def _provenance_section(provenance: Mapping[str, Any]) -> str:
    rows = [
        [_esc(key), f"<code>{_esc(value)}</code>"]
        for key, value in sorted(provenance.items())
    ]
    return (
        '<section id="provenance"><h2>Provenance</h2>'
        + _table(["field", "value"], rows)
        + "</section>"
    )


def _drift_section(drift_rows: Sequence[Tuple[str, str, str]]) -> str:
    if not drift_rows:
        return ""
    rows = [
        [_esc(artefact), _badge(status), _esc(detail)]
        for artefact, status, detail in drift_rows
    ]
    return (
        '<section id="drift"><h2>Drift vs committed goldens</h2>'
        + _table(["artefact", "verdict", "detail"], rows)
        + "</section>"
    )


def _bench_section(bench_rows: Sequence[Any]) -> str:
    if not bench_rows:
        return ""

    def fmt(value: Optional[float], suffix: str = "") -> str:
        return "-" if value is None else f"{value:.2f}{suffix}"

    rows = [
        [
            _esc(row.name),
            _esc(fmt(row.speedup, "x")),
            _esc(fmt(row.floor, "x")),
            _esc(fmt(row.headroom)),
        ]
        for row in bench_rows
    ]
    return (
        '<section id="bench"><h2>Benchmark trajectory '
        "(committed BENCH_*.json)</h2>"
        + _table(["bench", "speedup", "floor", "headroom"], rows)
        + "</section>"
    )


def _figure_section(artefact: ExperimentArtefact) -> str:
    meta_bits = [
        f"csv: <code>{_esc(f'csv/{artefact.csv_filename}')}</code>",
        f"spec: <code>{_esc(artefact.spec_hash[:12])}</code>",
        f"seed: <code>{_esc(artefact.seed)}</code>",
        f"trials: <code>{_esc(artefact.trials)}</code>",
    ]
    parts = [
        f'<section class="experiment" id="exp-{_esc(artefact.name)}">',
        f"<h2>{_esc(artefact.title)}</h2>",
        f"<p>{_esc(artefact.description)}</p>",
        f'<p class="meta">{" · ".join(meta_bits)}</p>',
    ]
    if artefact.result.points:
        parts.append(
            svg_line_plot(
                artefact.result,
                y_label=artefact.y_label,
                x_label=artefact.x_label,
            )
        )
        parts.append(result_table(artefact.result, artefact.extra_columns))
    else:
        parts.append('<p class="meta">no data points</p>')
    parts.append("</section>")
    return "".join(parts)


def render_paper_report(
    artefacts: Sequence[ExperimentArtefact],
    provenance: Mapping[str, Any],
    drift_rows: Sequence[Tuple[str, str, str]] = (),
    bench_rows: Sequence[Any] = (),
    title: str = "Reproduction report: 'Feedback from nature' (PODC 2013)",
    now: Optional[str] = None,
) -> str:
    """The full self-contained HTML document.

    ``artefacts`` are the pipeline's
    :class:`~repro.experiments.paper.ExperimentArtefact` records, one
    block each, linking ``csv/<name>.csv``; ``drift_rows`` are
    ``(artefact, status, detail)`` triples; ``bench_rows`` anything with ``name``/``speedup``/``floor``/
    ``headroom`` attributes (the stats module's ``BenchDrift``).  ``now``
    is the *only* way a timestamp enters the document — leave it unset
    (the default) for byte-identical regeneration.
    """
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style>",
        "</head><body>",
        f"<h1>{_esc(title)}</h1>",
    ]
    if now is not None:
        parts.append(f'<p class="stamp">generated: {_esc(now)}</p>')
    parts.append(_provenance_section(provenance))
    parts.append(_drift_section(drift_rows))
    for artefact in artefacts:
        parts.append(_figure_section(artefact))
    parts.append(_bench_section(bench_rows))
    parts.append("</body></html>")
    return "\n".join(part for part in parts if part)
