"""The benchmark's workloads: inputs from a seed, the timed call, the checks.

Every workload is a closed loop of one caller: the worker process issues
one operation (one cold sweep, one cold paper run, or one batch of warm
paper runs on a copy of a cache filled once per run) and waits for it.
The program only ever receives the ``CellSpec``s or ``run_paper``
arguments built here.

Correctness is checked on every operation, outside the timed part:

- no failed shards, every trial validated (``validate=True`` is the
  ``CellSpec`` default and the paper registry's), the expected number of
  trial rows;
- a warm rerun against the same store executes 0 shards and emits
  byte-identical CSV (sweeps after the timed call, paper runs on every
  warm call);
- at full scale, the sha256 and line count of every emitted CSV equal
  the values pinned below (sweeps on the default seed; the paper
  pipeline fixes its own seeds, so on every seed).
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The sweep seed the pins below were taken at: ``repro sweep``'s default
#: ``--seed``, so ``sweep_gnp_cold`` at this seed emits exactly the CSV of
#: ``repro sweep --sizes 1000 --trials 50 --graphs 2 --csv``.
DEFAULT_SEED = 1900

#: Per-scale sizes.  ``full`` is what the benchmark measures, sized so one
#: operation takes 2-3 s: on a VM whose speed changes in phases of
#: seconds, a run's best operation is steadier among many short ones than
#: among a few long ones (README, "Noise").  ``tiny`` exercises the same
#: code paths in well under a second (smoke test).
SCALES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "sweep_gnp_cold": {"n": 1000, "trials": 50, "graphs": 2, "shard_trials": 32},
        "sweep_grid_cold": {"side": 100, "trials": 96},
        "paper_cold": {"trials": 16},
        "paper_warm": {"trials": 16, "calls": 24},
    },
    "tiny": {
        "sweep_gnp_cold": {"n": 60, "trials": 8, "graphs": 2, "shard_trials": 3},
        "sweep_grid_cold": {"side": 8, "trials": 8},
        "paper_cold": {"trials": 1},
        "paper_warm": {"trials": 1, "calls": 2},
    },
}

#: ``(sha256, lines)`` of each emitted CSV at full scale: the sweep CSV on
#: :data:`DEFAULT_SEED`, and every paper CSV at ``trials=16``.  Each equals
#: the CLI's output: ``repro sweep --sizes 1000 --trials 50 --graphs 2
#: --csv``, ``repro sweep --family grid --sizes 100 --trials 96
#: --shard-trials 96 --csv`` and ``repro paper --trials 16``.
PINNED_SWEEP: Dict[str, Tuple[str, int]] = {
    "sweep_gnp_cold": ("0eef8bd12f520555c53bfd597f9afd6937e05f5abff3fe7c43e34730536f5c0d", 3),
    "sweep_grid_cold": ("57e26f55a957d306fdc36909224554e1d72b64139135cea7b3429e664ab83ee5", 3),
}
PINNED_PAPER: Dict[str, Tuple[str, int]] = {
    "figure3": ("45f7b59554747dd858ebb4d76c99ecf9f3c70ed59d5ea12ae03c1f2bdeeca4eb", 13),
    "figure5": ("012dbc27fabe7ca7309543bfe6b583e4b698c267b20f100b0e8c924770fd5e09", 7),
    "grid": ("40869a669538d07045912a3be395a33db131ef8189f53462a3f59449480418eb", 5),
    "theorem1": ("376cf3984429f9d53a40c1d7fc7a86a0d0dabfd0af7f8058d04ba8b99e0e6eeb", 7),
    "sizes": ("d199ddd5f7e0f24be8d50ebb16c19da78609f89887181dd051531d457c6dfaf4", 6),
    "robustness": ("d9a48bbc0dfe4dc71d1e77b2c36d458efe672e0c7f0b58a3c6321b99de4883d7", 5),
    "compare": ("4cd8d8dfb067a05c35bb23321c34d84e35c8f7344e22b8beaae6ce3e52af6f17", 25),
    "bio": ("aab11ca42fdd93c43078c35a3cce84a2d3b9e158d7b3b66eef46baae78fa7f77", 3),
}

#: The paper registry's entries, in pipeline order.
PAPER_EXPERIMENTS = tuple(PINNED_PAPER)


def csv_digest(text: str) -> Tuple[str, int]:
    """``(sha256, line count)`` of one CSV."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), text.count("\n")


@dataclass
class Outcome:
    """What one timed call produced, as the checks and metrics need it."""

    rows: int
    problems: List[str]


# ---------------------------------------------------------------------------
# Sweeps: run_sweep + cell_point over generated CellSpecs.
# ---------------------------------------------------------------------------


def sweep_cells(name: str, seed: int, size: Dict[str, int]) -> Tuple[Any, List[Any]]:
    """The ``SweepSpec`` and cells of one sweep workload on ``seed``.

    Mirrors ``repro sweep``: one master seed per size, shared by both
    algorithms.
    """
    from repro.beeping.rng import derive_seed
    from repro.sweep.spec import CellSpec, SweepSpec

    if name == "sweep_gnp_cold":
        family = {"family": "gnp", "n": size["n"], "edge_probability": 0.5}
        graphs, shard_trials = size["graphs"], size["shard_trials"]
    else:
        family = {"family": "grid", "rows": size["side"], "cols": size["side"]}
        graphs, shard_trials = 1, size["trials"]
    cells = [
        CellSpec(
            algorithm=algorithm,
            engine="fleet",
            trials=size["trials"],
            graphs=graphs,
            master_seed=derive_seed(seed, 0),
            rng_mode="counter",
            backend="auto",
            **family,
        )
        for algorithm in ("feedback", "afek-sweep")
    ]
    return SweepSpec(tuple(cells), shard_trials=shard_trials), cells


def _sweep_points(result: Any, cells: List[Any]) -> List[Any]:
    """``cell_point`` of every cell the sweep completed."""
    from repro.sweep.aggregate import cell_point

    return [
        cell_point(cell, result.outcomes[cell], "rounds")
        for cell in cells
        if cell in result.outcomes
    ]


def _sweep_csv(points: List[Any], seed: int) -> str:
    """The CSV ``repro sweep --csv`` prints for these points."""
    from repro.experiments.records import ExperimentResult, results_to_csv

    return results_to_csv(ExperimentResult("sweep", points, seed))


class SweepWorkload:
    """A cold sweep against an empty store, then a warm recheck."""

    def __init__(
        self, name: str, seed: int, scale: str, tmp: Path,
        filled: Optional[Path] = None,
    ) -> None:
        self.name, self.seed, self.scale = name, seed, scale
        self.spec, self.cells = sweep_cells(name, seed, SCALES[scale][name])
        self.store = tmp / "store"

    def call(self) -> Tuple[Any, List[Any]]:
        from repro.sweep.orchestrator import run_sweep

        result = run_sweep(self.spec, store=self.store, jobs=1)
        return result, _sweep_points(result, self.cells)

    def check(self, output: Tuple[Any, List[Any]]) -> Outcome:
        from repro.sweep.orchestrator import run_sweep

        result, points = output
        report = result.report
        if report.failed_shards:
            return Outcome(0, [f"failed shards: {report.summary()}"])
        problems: List[str] = []
        if report.shards_executed != report.shards_total:
            problems.append(f"cold sweep was not cold: {report.summary()}")
        rows = sum(len(rows) for rows in result.outcomes.values())
        if rows != sum(cell.trials for cell in self.cells):
            problems.append(f"{rows} trial rows returned")
        csv_text = _sweep_csv(points, self.seed)
        warm = run_sweep(self.spec, store=self.store, jobs=1)
        if warm.report.shards_executed or warm.report.failed_shards:
            problems.append(f"warm rerun executed: {warm.report.summary()}")
        elif _sweep_csv(_sweep_points(warm, self.cells), self.seed) != csv_text:
            problems.append("warm sweep CSV differs from cold")
        if self.scale == "full" and self.seed == DEFAULT_SEED:
            pinned = PINNED_SWEEP[self.name]
            if csv_digest(csv_text) != pinned:
                problems.append(
                    f"sweep CSV {csv_digest(csv_text)} != pinned {pinned}"
                )
        return Outcome(rows, problems)


# ---------------------------------------------------------------------------
# The paper pipeline: run_paper on a fresh cache (cold) or a filled one.
# ---------------------------------------------------------------------------


def _paper(trials: int, cache: Path, out: Path) -> Any:
    from repro.experiments.paper import run_paper

    return run_paper(
        trials=trials,
        jobs=1,
        cache_dir=cache,
        out_dir=out,
        golden_dir=None,
        bench_dir=None,
    )


def _paper_rows(pipeline: Any) -> int:
    """Trial rows behind a pipeline's artefacts (one per bio run)."""
    return sum(
        point.trials
        for artefact in pipeline.artefacts
        for point in artefact.result.points
    )


def check_pipeline(
    pipeline: Any, scale: str, warm: bool, reference: Dict[str, str]
) -> List[str]:
    """Problems with one ``run_paper`` result (empty when it is correct)."""
    problems: List[str] = []
    names = [artefact.name for artefact in pipeline.artefacts]
    if names != list(PAPER_EXPERIMENTS):
        problems.append(f"artefacts {names}")
    for artefact in pipeline.artefacts:
        on_disk = (pipeline.csv_dir / artefact.csv_filename).read_text(
            encoding="utf-8"
        )
        if on_disk != artefact.csv:
            problems.append(f"{artefact.name}: written CSV differs")
        if warm and (artefact.shards_executed or (
            artefact.name == "bio" and not artefact.artefact_cached
        )):
            problems.append(f"{artefact.name}: warm call executed work")
        if not warm and artefact.shards_cached:
            problems.append(f"{artefact.name}: cold call hit the cache")
        if artefact.name in reference and reference[artefact.name] != artefact.csv:
            problems.append(f"{artefact.name}: CSV differs from the cold run")
        if scale == "full":
            pinned = PINNED_PAPER.get(artefact.name)
            if csv_digest(artefact.csv) != pinned:
                problems.append(
                    f"{artefact.name}: {csv_digest(artefact.csv)} != pinned {pinned}"
                )
    if not pipeline.report_path.is_file():
        problems.append("report.html missing")
    return problems


def fill_paper_cache(scale: str, root: Path) -> List[str]:
    """One cold ``run_paper`` into ``root/cache`` and ``root/out``, which
    every ``paper_warm`` operation of a run then starts from; its
    problems (checked like a cold run)."""
    trials = SCALES[scale]["paper_warm"]["trials"]
    fill = _paper(trials, root / "cache", root / "out")
    return check_pipeline(fill, scale, False, {})


class PaperWorkload:
    """``run_paper`` cold on an empty cache, or warm calls on a filled one.

    ``paper_warm`` copies the cache of :func:`fill_paper_cache` (``filled``)
    into its own scratch dir during set-up, and its warm calls must give
    the fill's CSVs byte for byte.
    """

    def __init__(
        self, name: str, seed: int, scale: str, tmp: Path,
        filled: Optional[Path] = None,
    ) -> None:
        size = SCALES[scale][name]
        self.name, self.seed, self.scale, self.tmp = name, seed, scale, tmp
        self.trials = size["trials"]
        self.calls = size.get("calls", 1)
        self.cache = tmp / "cache"
        self.reference: Dict[str, str] = {}
        if name == "paper_warm":
            if filled is None:
                raise ValueError("paper_warm needs a filled cache")
            shutil.copytree(filled / "cache", self.cache)
            self.reference = {
                path.stem: path.read_text(encoding="utf-8")
                for path in (filled / "out" / "csv").glob("*.csv")
            }

    def call(self) -> List[Any]:
        return [
            _paper(self.trials, self.cache, self.tmp / f"out{index}")
            for index in range(self.calls)
        ]

    def check(self, pipelines: List[Any]) -> Outcome:
        warm = self.name == "paper_warm"
        problems: List[str] = []
        if warm and sorted(self.reference) != sorted(PAPER_EXPERIMENTS):
            problems.append(f"filled cache has CSVs {sorted(self.reference)}")
        for pipeline in pipelines:
            problems += check_pipeline(pipeline, self.scale, warm, self.reference)
        rows = sum(_paper_rows(pipeline) for pipeline in pipelines)
        expected = len(pipelines) * _paper_rows(pipelines[0])
        if rows != expected or rows == 0:
            problems.append(f"{rows} trial rows returned")
        return Outcome(rows, list(dict.fromkeys(problems)))


WORKLOADS: Dict[str, Callable[..., Any]] = {
    "sweep_gnp_cold": SweepWorkload,
    "sweep_grid_cold": SweepWorkload,
    "paper_cold": PaperWorkload,
    "paper_warm": PaperWorkload,
}
