"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures and asserts
the *shape* of the result (who wins, by roughly what factor) rather than
absolute numbers.  Two scales are supported via the ``REPRO_BENCH_SCALE``
environment variable:

- ``small`` (default): minutes-long runs suited to CI; reduced sizes and
  trial counts, same qualitative shape.
- ``paper``: the paper's actual parameters (n up to 1000, 100-200 trials);
  the reduced-scale record of it is the ``repro paper`` pipeline
  (docs/paper.md, pinned in tests/experiments/golden_paper/).

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import pytest


@dataclass(frozen=True)
class BenchScale:
    """Workload sizes for one benchmark scale."""

    name: str
    figure3_sizes: Tuple[int, ...]
    figure3_trials: int
    figure5_sizes: Tuple[int, ...]
    figure5_trials: int
    theorem1_sides: Tuple[int, ...]
    theorem1_trials: int
    grid_sides: Tuple[int, ...]
    grid_trials: int
    ablation_n: int
    ablation_trials: int


SMALL = BenchScale(
    name="small",
    figure3_sizes=(50, 100, 200, 400),
    figure3_trials=20,
    figure5_sizes=(10, 50, 100, 150, 200),
    figure5_trials=40,
    theorem1_sides=(4, 6, 8, 10),
    theorem1_trials=15,
    grid_sides=(5, 8, 12),
    grid_trials=40,
    ablation_n=150,
    ablation_trials=15,
)

PAPER = BenchScale(
    name="paper",
    figure3_sizes=(50, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000),
    figure3_trials=100,
    figure5_sizes=(10, 25, 50, 75, 100, 125, 150, 175, 200),
    figure5_trials=200,
    theorem1_sides=(4, 6, 8, 10, 12, 14),
    theorem1_trials=30,
    grid_sides=(5, 8, 10, 12, 15),
    grid_trials=100,
    ablation_n=300,
    ablation_trials=30,
)


def current_scale() -> BenchScale:
    """The scale selected by ``REPRO_BENCH_SCALE`` (default: small)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    if name == "paper":
        return PAPER
    if name == "small":
        return SMALL
    raise ValueError(
        f"REPRO_BENCH_SCALE must be 'small' or 'paper', got {name!r}"
    )


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    """The active benchmark scale."""
    return current_scale()


def report(title: str, body: str) -> None:
    """Print a framed reproduction report (captured into bench output)."""
    bar = "=" * 78
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


def write_bench_result(
    name: str,
    params: Dict[str, Any],
    results: Dict[str, Any],
    floor: Optional[float] = None,
) -> Path:
    """Write one benchmark's machine-readable record, ``BENCH_<name>.json``.

    The perf trajectory across PRs is tracked from these files (CI uploads
    them as artefacts), so the payload is deliberately *timestamp-free*
    and fully deterministic apart from the measured numbers: ``params``
    holds the workload description (sizes, trials, seeds — reproducible
    inputs only), ``results`` the measurements (seconds, speedups), and
    ``floor`` the CI-enforced minimum speedup, if the bench has one.

    Files land in ``REPRO_BENCH_DIR`` (default: the working directory, the
    repo root under ``pytest benchmarks/...``).
    """
    payload: Dict[str, Any] = {
        "bench": name,
        "scale": current_scale().name,
        "params": params,
        "results": results,
    }
    if floor is not None:
        payload["floor"] = floor
    directory = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
