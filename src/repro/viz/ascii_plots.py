"""ASCII scatter/line plots for the terminal.

A small, dependency-free plotter: series of (x, y) points mapped onto a
character canvas with axis labels and a legend.  Good enough to eyeball
the log-vs-log² separation of Figure 3 in a terminal.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.experiments.records import ExperimentResult

_GLYPHS = "ox+*#@%&"


class AsciiPlot:
    """A 72 by 20 character canvas with data-space coordinates."""

    def __init__(self, x_label: str = "x", y_label: str = "y") -> None:
        self._width = 72
        self._height = 20
        self._x_label = x_label
        self._y_label = y_label
        self._series: List[Tuple[str, List[Tuple[float, float]]]] = []

    def add_series(
        self, name: str, xs: Sequence[float], ys: Sequence[float]
    ) -> None:
        """Add one named series of points."""
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        points = [(float(x), float(y)) for x, y in zip(xs, ys)]
        self._series.append((name, points))

    def render(self) -> str:
        """Render the canvas with axes and legend."""
        all_points = [p for _name, pts in self._series for p in pts]
        if not all_points:
            raise ValueError("nothing to plot: add at least one point")
        xs = [p[0] for p in all_points]
        ys = [p[1] for p in all_points]
        x_min, x_max = min(xs), max(xs)
        y_min, y_max = min(ys), max(ys)
        if x_max == x_min:
            x_max = x_min + 1.0
        if y_max == y_min:
            y_max = y_min + 1.0
        grid = [[" "] * self._width for _ in range(self._height)]

        def to_canvas(x: float, y: float) -> Tuple[int, int]:
            col = round((x - x_min) / (x_max - x_min) * (self._width - 1))
            row = round((y - y_min) / (y_max - y_min) * (self._height - 1))
            return (self._height - 1 - row, col)

        for index, (_name, points) in enumerate(self._series):
            glyph = _GLYPHS[index % len(_GLYPHS)]
            for x, y in points:
                row, col = to_canvas(x, y)
                grid[row][col] = glyph

        y_axis_width = max(
            len(f"{y_max:.4g}"), len(f"{y_min:.4g}"), len(self._y_label)
        )
        lines: List[str] = []
        lines.append(f"{self._y_label.rjust(y_axis_width)}")
        for row_index, row in enumerate(grid):
            if row_index == 0:
                label = f"{y_max:.4g}".rjust(y_axis_width)
            elif row_index == self._height - 1:
                label = f"{y_min:.4g}".rjust(y_axis_width)
            else:
                label = " " * y_axis_width
            lines.append(f"{label} |{''.join(row)}")
        x_axis = " " * y_axis_width + " +" + "-" * self._width
        lines.append(x_axis)
        left = f"{x_min:.4g}"
        right = f"{x_max:.4g}"
        padding = self._width - len(left) - len(right)
        lines.append(
            " " * (y_axis_width + 2) + left + " " * max(padding, 1) + right
        )
        lines.append(" " * (y_axis_width + 2) + self._x_label)
        legend = "  ".join(
            f"{_GLYPHS[i % len(_GLYPHS)]}={name}"
            for i, (name, _pts) in enumerate(self._series)
        )
        lines.append("legend: " + legend)
        return "\n".join(lines)


def plot_experiment(
    result: ExperimentResult,
    y_label: str = "mean",
    x_label: str = "n",
) -> str:
    """Plot every series of an :class:`ExperimentResult` (means only)."""
    plot = AsciiPlot(x_label=x_label, y_label=y_label)
    for name in result.series_names():
        plot.add_series(name, result.xs(name), result.means(name))
    return plot.render()
