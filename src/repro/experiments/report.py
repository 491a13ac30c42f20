"""One-shot reproduction report.

``build_report`` runs a reduced version of every experiment in the paper
and renders a single text report — a reduced-scale counterpart of the
``repro paper`` pipeline (``docs/paper.md``), used by ``python -m repro
report`` and handy for checking a changed algorithm against all claims
at once.

Every orchestrated section threads ``jobs``/``cache_dir`` through to the
sweep orchestrator, so ``repro report --cache-dir .cache`` reuses (and
extends) the same shard store as ``repro paper`` and ``repro sweep``.
The factor-ablation section is the one exception: it explores engine
*parameter* perturbations outside the CellSpec schema and stays a direct
batch run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

PathLike = Union[str, Path]

from repro.analysis.regression import fit_log2, fit_log2_squared
from repro.experiments.ablations import factor_ablation
from repro.experiments.figures import figure3_series, figure5_series, grid_beeps_series
from repro.experiments.lower_bound import theorem1_experiment
from repro.experiments.tables import format_experiment
from repro.viz.ascii_plots import plot_experiment


@dataclass(frozen=True)
class ReportSection:
    """One experiment's rendered block plus its pass/fail verdict."""

    title: str
    body: str
    passed: bool


def _verdict(flag: bool) -> str:
    return "PASS" if flag else "FAIL"


def _figure3_section(
    trials: int,
    master_seed: int,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
) -> ReportSection:
    sizes = (50, 100, 200, 400)
    result = figure3_series(
        sizes=sizes,
        trials=trials,
        master_seed=master_seed,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    feedback = result.means("feedback")
    sweep = result.means("afek-sweep")
    ns = result.xs("feedback")
    feedback_fit = fit_log2(ns, feedback)
    sweep_fit = fit_log2_squared(ns, sweep)
    passed = (
        all(f < s for f, s in zip(feedback, sweep))
        and 1.0 < feedback_fit.slope < 5.0
    )
    body = (
        format_experiment(result)
        + f"\nfeedback fit: {feedback_fit.format()}"
        + f"\nsweep fit:    {sweep_fit.format()}"
        + "\n"
        + plot_experiment(result, y_label="rounds")
    )
    return ReportSection("Figure 3: rounds vs n", body, passed)


def _figure5_section(
    trials: int,
    master_seed: int,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
) -> ReportSection:
    result = figure5_series(
        sizes=(10, 50, 100, 200),
        trials=trials,
        master_seed=master_seed,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    feedback = result.means("feedback")
    sweep = result.means("afek-sweep")
    passed = max(feedback) < 2.5 and sweep[-1] > sweep[0]
    return ReportSection(
        "Figure 5: beeps per node vs n",
        format_experiment(result),
        passed,
    )


def _grid_section(
    trials: int,
    master_seed: int,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
) -> ReportSection:
    result = grid_beeps_series(
        side_lengths=(5, 10),
        trials=trials,
        master_seed=master_seed,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    means = [p.mean for p in result.series("feedback")]
    passed = all(0.6 < m < 2.0 for m in means)
    return ReportSection(
        "Section 5: beeps per node on grids (paper: ~1.1)",
        format_experiment(result),
        passed,
    )


def _theorem1_section(
    trials: int,
    master_seed: int,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
) -> ReportSection:
    result = theorem1_experiment(
        sides=(4, 8, 12),
        trials=trials,
        master_seed=master_seed,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    sweep = result.means("afek-sweep")
    feedback = result.means("feedback")
    passed = all(f < s for f, s in zip(feedback, sweep))
    return ReportSection(
        "Theorem 1: the disjoint-clique separation",
        format_experiment(result),
        passed,
    )


def _robustness_section(trials: int, master_seed: int) -> ReportSection:
    result = factor_ablation(
        factor_pairs=((0.5, 2.0), (0.3, 3.0), (0.7, 1.3)),
        n=150,
        trials=trials,
        master_seed=master_seed,
    )
    baseline = result.points[0].mean
    passed = all(p.mean < 3.0 * baseline for p in result.points)
    return ReportSection(
        "Section 6: factor robustness",
        format_experiment(result),
        passed,
    )


def build_sections(
    trials: int = 10,
    master_seed: int = 2303,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
) -> List[ReportSection]:
    """Run every reduced experiment and return the rendered sections."""
    if trials < 2:
        raise ValueError("trials must be >= 2")
    return [
        _figure3_section(trials, master_seed, jobs, cache_dir),
        _figure5_section(trials, master_seed, jobs, cache_dir),
        _grid_section(trials, master_seed, jobs, cache_dir),
        _theorem1_section(trials, master_seed, jobs, cache_dir),
        _robustness_section(trials, master_seed),
    ]


def build_report(
    trials: int = 10,
    master_seed: int = 2303,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
) -> str:
    """The full text report, with a verdict summary at the top."""
    sections = build_sections(trials, master_seed, jobs, cache_dir)
    bar = "=" * 74
    lines = [
        bar,
        "Reproduction report: 'Feedback from nature' (PODC 2013)",
        f"(reduced scale: {trials} trials per point; see docs/paper.md "
        "and tests/experiments/golden_paper/ for the pinned record)",
        bar,
        "",
        "verdicts:",
    ]
    for section in sections:
        lines.append(f"  [{_verdict(section.passed)}] {section.title}")
    lines.append("")
    for section in sections:
        lines.append(bar)
        lines.append(section.title)
        lines.append(bar)
        lines.append(section.body)
        lines.append("")
    return "\n".join(lines)
