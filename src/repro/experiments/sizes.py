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
from typing import Dict, List, Optional, Sequence, Union

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
    algorithm_names: Sequence[str] = DEFAULT_ALGORITHMS,
    master_seed: int = 1701,
    include_optimum: Optional[bool] = None,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
    shard_trials: int = 32,
) -> ExperimentResult:
    """Mean MIS size per algorithm over ``trials`` G(n, p) graphs.

    When the graphs are small enough (or ``include_optimum`` forces it),
    each point's ``extra["optimum_ratio"]`` records mean(size / optimum).
    """
    from repro.sweep.aggregate import summarize
    from repro.sweep.orchestrator import run_sweep
    from repro.sweep.spec import CellSpec, SweepSpec

    if include_optimum is None:
        include_optimum = n <= MAX_EXACT_VERTICES
    if include_optimum and n > MAX_EXACT_VERTICES:
        raise ValueError(
            f"exact optimum needs n <= {MAX_EXACT_VERTICES}, got {n}"
        )
    cells = tuple(
        CellSpec(
            algorithm=name,
            engine="reference",
            family="gnp",
            n=n,
            edge_probability=edge_probability,
            trials=trials,
            master_seed=master_seed,
            validate=True,
        )
        for name in algorithm_names
    )
    spec = SweepSpec(cells, shard_trials=shard_trials)
    sweep = run_sweep(spec, store=cache_dir, jobs=jobs)

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
    for name, cell in zip(algorithm_names, cells):
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
