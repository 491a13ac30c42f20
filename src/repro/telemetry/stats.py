"""Queries over a telemetry ledger directory — the ``repro stats`` engine.

Three report sections, each with a table renderer and a JSON-safe dict
form (``repro stats --json``):

- **runs** — one row per ledger file: command, status, elapsed seconds,
  shard counts, cache hit-rate.
- **per-run detail** (``--run``/latest): elapsed phases, counters,
  gauges, and the slowest executed shards with their spec hashes.
- **bench floors** — the committed ``BENCH_*.json`` records next to the
  ledger: measured speedup vs the CI-enforced floor, and the drift
  (headroom) between them.  A benchmark drifting toward its floor is the
  early warning the floors themselves only give at the cliff edge.
- **paper runs** (``--rundb DIR``) — the paper pipeline's persistent run
  database (:mod:`repro.sweep.rundb`): one row per regenerated
  experiment with its spec hash, shard cache hit-rate, and the drift
  verdict recorded at run time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.telemetry.ledger import RunSummary, finite_float, summarize_run

PathLike = Union[str, Path]


def ledger_paths(root: PathLike) -> List[Path]:
    """Every run ledger under ``root``, oldest first.

    Run ids start with a zero-padded hex timestamp, so lexicographic
    filename order is chronological order.
    """
    directory = Path(root)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("run-*.jsonl"))


def load_runs(root: PathLike) -> List[RunSummary]:
    """Summaries of every ledger run under ``root``, oldest first."""
    return [summarize_run(path) for path in ledger_paths(root)]


@dataclass(frozen=True)
class BenchDrift:
    """One committed benchmark record vs its CI floor."""

    name: str
    speedup: Optional[float]
    floor: Optional[float]

    @property
    def headroom(self) -> Optional[float]:
        """``speedup / floor`` — drift toward 1.0 means trouble brewing."""
        if self.speedup is None or not self.floor:
            return None
        return self.speedup / self.floor

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form."""
        return {
            "name": self.name,
            "speedup": self.speedup,
            "floor": self.floor,
            "headroom": self.headroom,
        }


def bench_drift(bench_dir: PathLike) -> List[BenchDrift]:
    """Parse every ``BENCH_*.json`` under ``bench_dir`` into drift rows.

    Records without a ``speedup`` result or a ``floor`` still appear
    (with ``None`` fields) so the report shows the full trajectory; so
    do records whose ``results`` is not an object or whose speedup or
    floor is not a finite number.  Unreadable files, and files whose
    top level is not a JSON object, are skipped.
    """
    rows: List[BenchDrift] = []
    directory = Path(bench_dir)
    if not directory.is_dir():
        return rows
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if not isinstance(payload, dict):
            continue
        results = payload.get("results")
        rows.append(
            BenchDrift(
                name=str(payload.get("bench", path.stem)),
                speedup=finite_float(
                    results.get("speedup")
                    if isinstance(results, dict)
                    else None
                ),
                floor=finite_float(payload.get("floor")),
            )
        )
    return rows


def _format_rate(rate: Optional[float]) -> str:
    return "-" if rate is None else f"{100.0 * rate:.0f}%"


def rundb_table(records: List[Any]) -> str:
    """The paper-pipeline run table (:class:`repro.sweep.rundb.RunRecord`).

    Oldest first, like the append-only log itself; the run id groups the
    rows of one ``repro paper`` invocation.
    """
    from repro.experiments.tables import format_table

    rows = []
    for record in records:
        rows.append(
            [
                record.run_id[:12],
                record.experiment,
                record.spec_hash[:12],
                str(record.trials),
                f"{record.shards_executed}",
                f"{record.shards_cached}",
                _format_rate(record.cache_hit_rate),
                record.drift,
            ]
        )
    return format_table(
        ["run", "experiment", "spec", "trials", "shards run", "cached",
         "hit-rate", "drift"],
        rows,
    )


def runs_table(runs: List[RunSummary]) -> str:
    """The per-run summary table (newest last, like the directory)."""
    from repro.experiments.tables import format_table

    rows = []
    for run in runs:
        executed = run.counters.get("sweep.cache.miss", 0.0)
        cached = run.counters.get("sweep.cache.hit", 0.0)
        rows.append(
            [
                run.run_id[:12] or run.path.stem,
                run.command or "?",
                run.status,
                f"{run.elapsed_seconds:.3f}",
                f"{int(executed)}",
                f"{int(cached)}",
                _format_rate(run.cache_hit_rate),
            ]
        )
    return format_table(
        ["run", "command", "status", "seconds", "shards run", "cached",
         "hit-rate"],
        rows,
    )


def run_detail(run: RunSummary, slowest: int = 5) -> str:
    """The drill-down report for one run."""
    from repro.experiments.tables import format_table

    lines = [
        f"run {run.run_id} command={run.command or '?'} "
        f"status={run.status} elapsed={run.elapsed_seconds:.3f}s",
        "versions: "
        + " ".join(f"{k}={v}" for k, v in sorted(run.versions.items())),
    ]
    if run.phases:
        lines.append("phases:")
        for name, seconds in sorted(
            run.phases.items(), key=lambda item: -item[1]
        ):
            lines.append(f"  {name}: {seconds:.3f}s")
    if run.counters:
        lines.append("counters:")
        for name, value in sorted(run.counters.items()):
            lines.append(f"  {name}: {value:g}")
    if run.gauges:
        lines.append("gauges:")
        for name, value in sorted(run.gauges.items()):
            lines.append(f"  {name}: {value:g}")
    if run.failed_shards:
        lines.append("failed shards (exhausted retries):")
        for shard in run.failed_shards:
            lines.append(
                f"  {shard.get('algorithm', '?')}"
                f"[n={shard.get('n', '?')} "
                f"{shard.get('lo', '?')}:{shard.get('hi', '?')}] "
                f"{shard.get('error', '?')}"
            )
    shards = run.slowest_shards(slowest)
    if shards:
        lines.append("slowest shards:")
        lines.append(
            format_table(
                ["algorithm", "n", "window", "seconds", "hash"],
                [
                    [
                        str(shard.get("algorithm", "?")),
                        str(shard.get("n", "?")),
                        f"[{shard.get('lo', '?')}, {shard.get('hi', '?')})",
                        f"{float(shard.get('seconds', 0.0)):.3f}",
                        str(shard.get("content_hash", ""))[:12],
                    ]
                    for shard in shards
                ],
            )
        )
    return "\n".join(lines)


def bench_table(rows: List[BenchDrift]) -> str:
    """The bench-floor drift table."""
    from repro.experiments.tables import format_table

    def fmt(value: Optional[float], suffix: str = "") -> str:
        return "-" if value is None else f"{value:.2f}{suffix}"

    return format_table(
        ["bench", "speedup", "floor", "headroom"],
        [
            [row.name, fmt(row.speedup, "x"), fmt(row.floor, "x"),
             fmt(row.headroom)]
            for row in rows
        ],
    )


def stats_payload(
    root: Optional[PathLike],
    bench_dir: Optional[PathLike] = None,
    run_id: Optional[str] = None,
    slowest: int = 5,
    rundb_dir: Optional[PathLike] = None,
) -> Dict[str, Any]:
    """The machine-readable ``repro stats --json`` document.

    ``root=None`` skips the ledger sections (a ``--rundb``-only query).
    """
    runs = load_runs(root) if root is not None else []
    selected = _select_run(runs, run_id)
    payload: Dict[str, Any] = {
        "ledger": str(Path(root)) if root is not None else None,
        "runs": [
            {
                "run_id": run.run_id,
                "command": run.command,
                "status": run.status,
                "elapsed_seconds": run.elapsed_seconds,
                "cache_hits": run.cache_hits,
                "cache_misses": run.cache_misses,
                "cache_hit_rate": run.cache_hit_rate,
                "counters": run.counters,
                "gauges": run.gauges,
                "phases": run.phases,
                "versions": run.versions,
                "failed_shards": run.failed_shards,
            }
            for run in runs
        ],
        "benches": [
            row.to_dict()
            for row in bench_drift(bench_dir if bench_dir is not None else ".")
        ],
    }
    if selected is not None:
        payload["run_detail"] = {
            "run_id": selected.run_id,
            "command": selected.command,
            "spec_hashes": selected.spec_hashes,
            "slowest_shards": selected.slowest_shards(slowest),
        }
    if rundb_dir is not None:
        from repro.sweep.rundb import RunDB

        db = RunDB(rundb_dir)
        payload["paper_runs"] = [r.to_dict() for r in db.records()]
        payload["paper_index"] = db.index()
    return payload


def _select_run(
    runs: List[RunSummary], run_id: Optional[str]
) -> Optional[RunSummary]:
    """The requested run (prefix match), else the newest, else ``None``."""
    if run_id is not None:
        for run in runs:
            if run.run_id.startswith(run_id):
                return run
        raise SystemExit(f"no ledger run matches id {run_id!r}")
    return runs[-1] if runs else None


def format_stats(
    root: Optional[PathLike],
    bench_dir: Optional[PathLike] = None,
    run_id: Optional[str] = None,
    slowest: int = 5,
    rundb_dir: Optional[PathLike] = None,
) -> str:
    """The human-readable ``repro stats`` report.

    ``root=None`` skips the ledger sections (a ``--rundb``-only query).
    """
    runs = load_runs(root) if root is not None else []
    sections: List[str] = []
    if root is None:
        pass
    elif not runs:
        sections.append(f"no ledger runs under {Path(root)}")
    else:
        sections.append(f"ledger: {Path(root)} ({len(runs)} runs)")
        sections.append(runs_table(runs))
        selected = _select_run(runs, run_id)
        if selected is not None:
            sections.append(run_detail(selected, slowest=slowest))
    drift = bench_drift(bench_dir if bench_dir is not None else ".")
    if drift:
        sections.append("bench floors (committed BENCH_*.json):")
        sections.append(bench_table(drift))
    if rundb_dir is not None:
        from repro.sweep.rundb import RunDB

        records = RunDB(rundb_dir).records()
        if records:
            sections.append(
                f"paper runs ({Path(rundb_dir)}, {len(records)} records):"
            )
            sections.append(rundb_table(records))
        else:
            sections.append(f"no paper runs under {Path(rundb_dir)}")
    return "\n\n".join(sections)
