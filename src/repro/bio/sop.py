"""SOP-pattern extraction and comparison with MIS structure.

The paper's motivating observation (Figure 1B): after SOP selection, "each
cell either becomes an SOP or a neighbour of an SOP, and no two SOPs are
neighbours" — i.e. the SOP set is a maximal independent set of the cell
contact graph.  These helpers extract the emergent SOP set from a
Notch–Delta run and quantify how closely it satisfies the two MIS
conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.validation import (
    independent_set_violations,
    uncovered_vertices,
)


def select_sops_by_delta(final_delta: Sequence[float]) -> Set[int]:
    """Cells whose final Delta activity exceeds ``0.5``.

    In the Collier model the pattern is strongly bimodal (senders near
    Delta ≈ 1, receivers near 0), so any mid-range threshold selects the
    same set; 0.5 is the conventional midpoint.
    """
    return {
        cell
        for cell, delta in enumerate(final_delta)
        if float(delta) > 0.5
    }


@dataclass(frozen=True)
class SOPPatternReport:
    """How MIS-like an emergent SOP pattern is."""

    num_cells: int
    num_sops: int
    adjacent_sop_pairs: int
    uncovered_cells: int
    delta_separation: float

    @property
    def is_independent(self) -> bool:
        """No two SOPs touch."""
        return self.adjacent_sop_pairs == 0

    @property
    def is_maximal(self) -> bool:
        """Every cell is an SOP or touches one."""
        return self.uncovered_cells == 0

    @property
    def is_mis(self) -> bool:
        """The full Figure 1B condition."""
        return self.is_independent and self.is_maximal


def analyze_sop_pattern(
    graph: Graph,
    sops: Iterable[int],
    final_delta: Sequence[float] = (),
) -> SOPPatternReport:
    """Score an SOP set against the MIS conditions.

    ``delta_separation`` is the gap between the lowest SOP Delta level and
    the highest non-SOP Delta level (positive = cleanly bimodal); 0.0 when
    no Delta levels are supplied or either class is empty.
    """
    sop_set = set(sops)
    violations = independent_set_violations(graph, sop_set)
    uncovered = uncovered_vertices(graph, sop_set)
    separation = 0.0
    if len(final_delta) == graph.num_vertices and graph.num_vertices > 0:
        deltas = np.asarray(final_delta, dtype=np.float64)
        sop_idx = sorted(sop_set)
        other_idx = [v for v in graph.vertices() if v not in sop_set]
        if sop_idx and other_idx:
            separation = float(deltas[sop_idx].min() - deltas[other_idx].max())
    return SOPPatternReport(
        num_cells=graph.num_vertices,
        num_sops=len(sop_set),
        adjacent_sop_pairs=len(violations),
        uncovered_cells=len(uncovered),
        delta_separation=separation,
    )
