"""Biology-side ablation: how strong must lateral inhibition be?

The paper's Figure 4 story relies on the Notch–Delta positive feedback
being strong enough to amplify small differences.  In the Collier model
the inhibition strength is the parameter ``b`` (how hard a cell's Notch
suppresses its own Delta): for large ``b`` the homogeneous state is
unstable and a fine-grained SOP pattern forms; for small ``b`` the sheet
settles into a featureless intermediate state and the MIS correspondence
evaporates.  This experiment sweeps ``b`` and scores the emergent pattern.
"""

from __future__ import annotations

import sys
from random import Random
from typing import List, Sequence

import numpy as np

from repro.bio.notch_delta import RK4_STEP, CollierParameters, NotchDeltaModel
from repro.bio.ode import rk4_integrate
from repro.bio.sop import analyze_sop_pattern, select_sops_by_delta
from repro.experiments.records import ExperimentResult, SeriesPoint
from repro.graphs.structured import hex_lattice_graph


def inhibition_strength_ablation(
    strengths: Sequence[float] = (1.0, 5.0, 20.0, 100.0, 500.0),
    rows: int = 7,
    cols: int = 7,
    trials: int = 3,
    t_end: float = 100.0,
    master_seed: int = 1910,
) -> ExperimentResult:
    """Pattern quality vs the Collier inhibition strength ``b``.

    Each point records the mean Delta *separation* (gap between the lowest
    SOP and highest non-SOP Delta level; bimodality score) and, in
    ``extra``, the mean SOP count and the fraction of trials whose pattern
    is an exact MIS of the contact graph.

    Each strength's trials are the rows of one stacked RK4 integration;
    row by row it is bit-identical to one ``NotchDeltaModel.run`` per
    trial.
    """
    from repro.sweep.aggregate import summarize

    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    graph = hex_lattice_graph(rows, cols)
    n = graph.num_vertices
    points: List[SeriesPoint] = []
    for index, strength in enumerate(strengths):
        model = NotchDeltaModel(graph, CollierParameters(b=strength))
        initial = np.array(
            [
                model.initial_state(
                    Random(master_seed * 1000 + index * 100 + trial)
                )
                for trial in range(trials)
            ]
        )
        # Only the final state is read: record just the two end points.
        _times, states = rk4_integrate(
            model.derivative, initial, (0.0, t_end), RK4_STEP,
            record_every=sys.maxsize,
        )
        separations: List[float] = []
        sop_counts: List[int] = []
        mis_hits = 0
        for delta in states[-1, :, n:]:
            sops = select_sops_by_delta(delta)
            pattern = analyze_sop_pattern(graph, sops, delta)
            separations.append(pattern.delta_separation)
            sop_counts.append(pattern.num_sops)
            if pattern.is_mis:
                mis_hits += 1
        mean_separation, std = summarize(separations)
        points.append(
            SeriesPoint(
                series="delta-separation",
                x=float(strength),
                mean=mean_separation,
                std=std,
                trials=trials,
                extra={
                    "mean_sops": sum(sop_counts) / trials,
                    "mis_fraction": mis_hits / trials,
                },
            )
        )
    return ExperimentResult(
        experiment="bio-inhibition-ablation",
        points=points,
        master_seed=master_seed,
        parameters={
            "rows": rows,
            "cols": cols,
            "trials": trials,
            "t_end": t_end,
        },
    )
