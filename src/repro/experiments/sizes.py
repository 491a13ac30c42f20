"""MIS-size study: how large are the sets the algorithms select?

The paper's introduction notes that "different maximal independent sets for
the same network can vary greatly in size" and that finding a *maximum* one
is NP-hard.  This experiment quantifies where each algorithm's MIS sizes
fall: mean size per algorithm on a common workload, plus — on graphs small
enough for the exact branch-and-bound solver — the fraction of the optimum
achieved.

Execution goes through the sweep orchestrator (:mod:`repro.sweep`): one
reference-engine cell per algorithm, all under the *same* master seed, so
trial ``t`` of every algorithm runs on the identical graph (drawn on seed
path ``(t, 0)``) and the optimum comparison stays paired.  ``jobs`` shards
the work over processes and ``cache_dir`` reuses stored trial rows.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.algorithms.exact import MAX_EXACT_VERTICES, maximum_independent_set
from repro.beeping.rng import RngStream
from repro.experiments.records import ExperimentResult, SeriesPoint
from repro.graphs.random_graphs import gnp_random_graph

PathLike = Union[str, Path]

DEFAULT_ALGORITHMS = (
    "feedback",
    "afek-sweep",
    "luby-permutation",
    "greedy",
)


def mis_size_experiment(
    n: int = 40,
    edge_probability: float = 0.3,
    trials: int = 20,
    master_seed: int = 1701,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
) -> ExperimentResult:
    """Mean MIS size per :data:`DEFAULT_ALGORITHMS` entry over ``trials``
    G(n, p) graphs.

    When the graphs are small enough for the exact solver (``n <=
    MAX_EXACT_VERTICES``), each point's ``extra["optimum_ratio"]``
    records mean(size / optimum).
    """
    from repro.sweep.aggregate import summarize
    from repro.sweep.orchestrator import run_sweep
    from repro.sweep.spec import CellSpec, SweepSpec

    include_optimum = n <= MAX_EXACT_VERTICES
    cells = tuple(
        CellSpec(
            algorithm=name,
            engine="reference",
            family="gnp",
            n=n,
            edge_probability=edge_probability,
            trials=trials,
            master_seed=master_seed,
        )
        for name in DEFAULT_ALGORITHMS
    )
    sweep = run_sweep(SweepSpec(cells), store=cache_dir, jobs=jobs)

    optima: List[int] = []
    if include_optimum:
        # Redraw each trial's graph exactly as the reference runner does
        # (seed path (t, 0) under the shared master seed) and solve it.
        stream = RngStream(master_seed)
        optima = [
            len(
                maximum_independent_set(
                    gnp_random_graph(n, edge_probability, stream.child(t, 0))
                )
            )
            for t in range(trials)
        ]

    points: List[SeriesPoint] = []
    for name, cell in zip(DEFAULT_ALGORITHMS, cells):
        rows = sweep.rows(cell)
        sizes = [row.mis_size for row in rows]
        mean, std = summarize([float(s) for s in sizes])
        extra: Dict[str, float] = {}
        if include_optimum:
            ratios = [
                size / optimum
                for size, optimum in zip(sizes, optima)
                if optimum > 0
            ]
            if ratios:
                extra["optimum_ratio"] = sum(ratios) / len(ratios)
        points.append(
            SeriesPoint(
                series=name,
                x=float(n),
                mean=mean,
                std=std,
                trials=trials,
                extra=extra,
            )
        )
    if include_optimum:
        mean_opt = sum(optima) / len(optima)
        points.append(
            SeriesPoint(
                series="optimum",
                x=float(n),
                mean=mean_opt,
                std=0.0,
                trials=trials,
                extra={"optimum_ratio": 1.0},
            )
        )
    return ExperimentResult(
        experiment="mis-sizes",
        points=points,
        master_seed=master_seed,
        parameters={
            "n": n,
            "edge_probability": edge_probability,
            "trials": trials,
            "include_optimum": include_optimum,
        },
        report=sweep.report,
    )
