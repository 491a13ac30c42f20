"""Deterministic inline-SVG line plots for the HTML paper report.

The environment has no plotting package, so the report draws its figures
as hand-assembled SVG: one polyline (plus circle markers) per series, a
fixed palette, axis frames and value ticks.  Everything is rendered from
the :class:`~repro.experiments.records.ExperimentResult` schema with
fixed-precision coordinate formatting, so the same result always produces
the same bytes — the property the pipeline's warm-rerun byte-identity
check depends on.  All text is escaped; the output embeds directly into
the self-contained HTML report (no external assets).
"""

from __future__ import annotations

import html
from typing import List, Tuple

from repro.experiments.records import ExperimentResult

#: Fixed series palette (cycled); chosen for contrast on a white panel.
PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _fmt(value: float) -> str:
    """Fixed-precision coordinate formatting (deterministic bytes)."""
    return f"{value:.2f}"


def _tick_label(value: float) -> str:
    return f"{value:g}"


def _span(values: List[float]) -> Tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi - lo <= 0.0:
        # Degenerate axis (single x, constant series): pad symmetrically
        # around the value so the line sits mid-panel.
        pad = abs(lo) * 0.5 or 1.0
        return lo - pad, hi + pad
    return lo, hi


def _ticks(lo: float, hi: float, count: int = 5) -> List[float]:
    step = (hi - lo) / (count - 1)
    return [lo + step * i for i in range(count)]


def svg_line_plot(
    result: ExperimentResult,
    y_label: str = "value",
    x_label: str = "n",
) -> str:
    """One experiment as a self-contained 640 by 360 ``<svg>`` element.

    Series are drawn in first-appearance order with the fixed
    :data:`PALETTE`; a legend lists them top-right.  Points with
    ``trials == 0`` (reference curves) still plot — they are data like
    any other series.  An empty result renders a labelled placeholder
    panel rather than failing.
    """
    width, height = 640, 360
    margin_left, margin_right = 62.0, 150.0
    margin_top, margin_bottom = 28.0, 46.0
    panel_w = width - margin_left - margin_right
    panel_h = height - margin_top - margin_bottom

    names = result.series_names()
    xs = [p.x for p in result.points]
    ys = [p.mean for p in result.points]

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'role="img" class="plot">',
        f'<rect x="0" y="0" width="{width}" height="{height}" '
        f'fill="#ffffff"/>',
    ]
    if not names or not xs:
        parts.append(
            f'<text x="{_fmt(width / 2.0)}" y="{_fmt(height / 2.0)}" '
            f'text-anchor="middle" font-size="13" fill="#888">'
            f'no data</text>'
        )
        parts.append("</svg>")
        return "".join(parts)

    x_lo, x_hi = _span(xs)
    y_lo, y_hi = _span(ys)

    def sx(x: float) -> float:
        return margin_left + (x - x_lo) / (x_hi - x_lo) * panel_w

    def sy(y: float) -> float:
        return margin_top + (1.0 - (y - y_lo) / (y_hi - y_lo)) * panel_h

    # Panel frame and grid ticks.
    parts.append(
        f'<rect x="{_fmt(margin_left)}" y="{_fmt(margin_top)}" '
        f'width="{_fmt(panel_w)}" height="{_fmt(panel_h)}" fill="none" '
        f'stroke="#cccccc" stroke-width="1"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        x = sx(tick)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(margin_top + panel_h)}" '
            f'x2="{_fmt(x)}" y2="{_fmt(margin_top + panel_h + 5)}" '
            f'stroke="#888888" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(margin_top + panel_h + 18)}" '
            f'text-anchor="middle" font-size="11" fill="#555">'
            f'{html.escape(_tick_label(tick))}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{_fmt(margin_left - 5)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(margin_left)}" y2="{_fmt(y)}" '
            f'stroke="#888888" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(margin_left - 8)}" y="{_fmt(y + 4)}" '
            f'text-anchor="end" font-size="11" fill="#555">'
            f'{html.escape(_tick_label(tick))}</text>'
        )
    parts.append(
        f'<text x="{_fmt(margin_left + panel_w / 2.0)}" '
        f'y="{_fmt(height - 8)}" text-anchor="middle" font-size="12" '
        f'fill="#333">{html.escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt(margin_top + panel_h / 2.0)}" '
        f'text-anchor="middle" font-size="12" fill="#333" '
        f'transform="rotate(-90 16 {_fmt(margin_top + panel_h / 2.0)})">'
        f'{html.escape(y_label)}</text>'
    )

    # Series polylines, markers and legend.
    for index, name in enumerate(names):
        color = PALETTE[index % len(PALETTE)]
        points = result.series(name)
        coords = " ".join(
            f"{_fmt(sx(p.x))},{_fmt(sy(p.mean))}" for p in points
        )
        if len(points) > 1:
            parts.append(
                f'<polyline points="{coords}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        for p in points:
            parts.append(
                f'<circle cx="{_fmt(sx(p.x))}" cy="{_fmt(sy(p.mean))}" '
                f'r="2.5" fill="{color}"/>'
            )
        legend_y = margin_top + 14.0 + 16.0 * index
        legend_x = margin_left + panel_w + 12.0
        parts.append(
            f'<line x1="{_fmt(legend_x)}" y1="{_fmt(legend_y - 4)}" '
            f'x2="{_fmt(legend_x + 18)}" y2="{_fmt(legend_y - 4)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(legend_x + 24)}" y="{_fmt(legend_y)}" '
            f'font-size="11" fill="#333">{html.escape(name)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)
