"""Drivers for the paper's experimental figures.

- :func:`figure1_example` — the Figure 1A artefact: an MIS on a 20-node
  random graph.
- :func:`figure3_series` — Figure 3: mean rounds vs n on ``G(n, 1/2)`` for
  the global-sweep and local-feedback algorithms, plus the paper's
  reference curves ``log₂² n`` and ``2.5·log₂ n``.
- :func:`figure5_series` — Figure 5: mean beeps per node vs n, both
  algorithms.
- :func:`grid_beeps_series` — the Section 5 text claim: mean beeps per
  node ≈ 1.1 on rectangular grid graphs, independent of size.

All series drivers go through the sweep orchestrator
(:mod:`repro.sweep`): each (size, rule) point is one fleet-engine
:class:`~repro.sweep.spec.CellSpec`, sharded across worker processes when
``jobs > 1`` and served from the content-addressed result store when
``cache_dir`` is set — regenerating a figure against a warm cache executes
zero shards.  Every seed derives from one master seed and results are
independent of ``jobs`` and ``cache_dir``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.theory import (
    figure3_feedback_reference,
    figure3_sweep_reference,
)
from repro.beeping.rng import derive_seed, spawn_rng
from repro.experiments.records import ExperimentResult, SeriesPoint
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.validation import verify_mis

PathLike = Union[str, Path]

DEFAULT_FIGURE3_SIZES = (50, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000)
DEFAULT_FIGURE5_SIZES = (10, 25, 50, 75, 100, 125, 150, 175, 200)

_RULE_NAMES = ("feedback", "afek-sweep")


def figure1_example() -> Tuple[Graph, Set[int]]:
    """An MIS selected from a 20-node ``G(20, 0.15)`` graph (the Figure 1A
    artefact), all randomness from seed 20.

    Runs the paper's feedback algorithm itself to pick the set, then
    verifies it.  Returns ``(graph, mis)``.
    """
    from repro.algorithms.feedback import FeedbackMIS

    graph = gnp_random_graph(20, 0.15, spawn_rng(20, 0))
    run = FeedbackMIS().run(graph, spawn_rng(20, 1))
    verify_mis(graph, run.mis)
    return graph, run.mis


def _beeping_series(
    experiment: str,
    family_for_size: Callable[[int], Dict[str, int]],
    sizes: Sequence[int],
    trials: int,
    master_seed: int,
    quantity: str,
    graphs_per_size: int,
    jobs: int,
    cache_dir: Optional[PathLike],
) -> ExperimentResult:
    """Shared sweep: both algorithms over sizes, extracting one quantity.

    Every cell of one size shares the master seed
    ``derive_seed(master_seed, size_index)``: both rules then draw
    *identical* graphs (the graph path ``(g, 0)`` depends only on the
    cell master seed), keeping the feedback-vs-sweep comparison paired —
    a hard outlier graph hits both series, not one.  ``trials`` are
    spread over ``graphs_per_size`` lockstep fleet groups per cell, and
    every trial's set is checked to be an MIS.
    """
    # Imported here, not at module scope: repro.sweep's modules consume
    # repro.experiments.records/runner, so a top-level import would cycle.
    from repro.sweep.aggregate import cell_point
    from repro.sweep.orchestrator import run_sweep
    from repro.sweep.spec import CellSpec, SweepSpec

    if quantity not in ("rounds", "beeps"):
        raise ValueError(f"quantity must be 'rounds' or 'beeps', got {quantity}")
    cells: List[CellSpec] = []
    for size_index in range(len(sizes)):
        family = family_for_size(size_index)
        for rule_name in _RULE_NAMES:
            cells.append(
                CellSpec(
                    algorithm=rule_name,
                    engine="fleet",
                    trials=trials,
                    graphs=graphs_per_size,
                    master_seed=derive_seed(master_seed, size_index),
                    **family,
                )
            )
    sweep = run_sweep(SweepSpec(tuple(cells)), store=cache_dir, jobs=jobs)
    points = [
        cell_point(cell, sweep.rows(cell), quantity) for cell in cells
    ]
    return ExperimentResult(
        experiment=experiment,
        points=points,
        master_seed=master_seed,
        parameters={"sizes": list(sizes), "trials": trials},
        report=sweep.report,
    )


def figure3_series(
    sizes: Sequence[int] = DEFAULT_FIGURE3_SIZES,
    trials: int = 100,
    master_seed: int = 1303,
    graphs_per_size: int = 5,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
) -> ExperimentResult:
    """Figure 3: mean rounds vs n on ``G(n, 1/2)``.

    ``trials`` simulations per (size, algorithm) are spread over
    ``graphs_per_size`` independently drawn graphs.  The result additionally
    carries the two reference curves as zero-std series named
    ``"log2_squared"`` and ``"2.5_log2"``.  ``jobs`` shards the sweep over
    worker processes; ``cache_dir`` enables the on-disk result store.
    """

    def family_for_size(size_index: int) -> Dict[str, int]:
        return {
            "family": "gnp",
            "n": sizes[size_index],
            "edge_probability": 0.5,
        }

    result = _beeping_series(
        "figure3",
        family_for_size,
        sizes,
        trials,
        master_seed,
        "rounds",
        graphs_per_size,
        jobs,
        cache_dir,
    )
    for n in sizes:
        result.points.append(
            SeriesPoint("log2_squared", float(n), figure3_sweep_reference(n), 0.0, 0)
        )
        result.points.append(
            SeriesPoint("2.5_log2", float(n), figure3_feedback_reference(n), 0.0, 0)
        )
    result.parameters["edge_probability"] = 0.5
    return result


def figure5_series(
    sizes: Sequence[int] = DEFAULT_FIGURE5_SIZES,
    trials: int = 200,
    master_seed: int = 1305,
    graphs_per_size: int = 5,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
) -> ExperimentResult:
    """Figure 5: mean beeps per node vs n on ``G(n, 1/2)``."""

    def family_for_size(size_index: int) -> Dict[str, int]:
        return {
            "family": "gnp",
            "n": sizes[size_index],
            "edge_probability": 0.5,
        }

    result = _beeping_series(
        "figure5",
        family_for_size,
        sizes,
        trials,
        master_seed,
        "beeps",
        graphs_per_size,
        jobs,
        cache_dir,
    )
    result.parameters["edge_probability"] = 0.5
    return result


def grid_beeps_series(
    side_lengths: Sequence[int] = (5, 8, 10, 12, 15),
    trials: int = 100,
    master_seed: int = 1306,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
) -> ExperimentResult:
    """Mean beeps per node of the feedback algorithm on square grids.

    The Section 5 text reports ≈ 1.1 regardless of size; the bench asserts
    the measured value stays flat and close to that.
    """

    def family_for_size(size_index: int) -> Dict[str, int]:
        side = side_lengths[size_index]
        return {"family": "grid", "rows": side, "cols": side}

    sizes = [side * side for side in side_lengths]
    result = _beeping_series(
        "grid-beeps",
        family_for_size,
        sizes,
        trials,
        master_seed,
        "beeps",
        graphs_per_size=1,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    result.parameters["side_lengths"] = list(side_lengths)
    return result
