"""Terminal visualisation: ASCII plots and graph rendering.

The environment has no display and no plotting package, so the figures are
reproduced as data series rendered to the terminal.  The plots deliberately
mimic the layout of the paper's figures (x = number of nodes, one glyph per
series, reference curves included).
"""

from repro.viz.animation import render_animation, render_frame
from repro.viz.ascii_plots import AsciiPlot, plot_experiment
from repro.viz.graph_render import render_grid_mis, render_mis_listing
from repro.viz.svg_plots import svg_line_plot

__all__ = [
    "AsciiPlot",
    "plot_experiment",
    "render_animation",
    "render_frame",
    "render_grid_mis",
    "render_mis_listing",
    "svg_line_plot",
]
