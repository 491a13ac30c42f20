"""Persistent run database for the paper pipeline.

Every ``repro paper`` invocation appends one :class:`RunRecord` per
regenerated experiment to an on-disk database, keyed by the experiment's
*execution-fingerprint hash* — a sha256 over exactly the shard content
hashes the sweep orchestrator looked up (plus, for non-orchestrated
experiments, a canonical parameter fingerprint).  Two runs with equal
keys are guaranteed byte-identical artefacts, so the database answers
"when did these exact bytes last get produced, and from how warm a
cache?" across sessions.

Layout (under one database root)::

    <root>/runs.jsonl   append-only, one JSON record per line

The write discipline mirrors the telemetry ledger: records land as
single ``O_APPEND`` line writes, and readers tolerate damage — an
unparsable (torn) trailing line is skipped.  The per-experiment summary
(:meth:`RunDB.index`) is computed from the records when asked, so an
append never re-reads the log.  The database is therefore safe to share
between concurrent pipeline runs and never blocks on partial state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.sweep.store import DAMAGE_ERRORS
from repro.telemetry.ledger import finite_float

PathLike = Union[str, Path]

#: Bump when the record schema changes incompatibly (every record and
#: the summary index carry it).
RUNDB_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RunRecord:
    """One experiment regeneration, as stored in the database.

    ``spec_hash`` is the execution-fingerprint key; ``shards_*`` count
    the orchestrator's distinct shard lookups (all zero for experiments
    outside the orchestrator); ``drift`` is the golden verdict at record
    time (``PASS``/``DRIFT``/``MISSING``/``SKIP``); ``csv_sha256``
    fingerprints the emitted artefact, so byte drift is detectable from
    the database alone.
    """

    run_id: str
    experiment: str
    spec_hash: str
    trials: int
    shards_total: int = 0
    shards_executed: int = 0
    shards_cached: int = 0
    elapsed_seconds: float = 0.0
    drift: str = "MISSING"
    csv_sha256: str = ""
    created: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> Optional[float]:
        """Cached fraction of the run's shard lookups, or ``None``."""
        looked_up = self.shards_executed + self.shards_cached
        if looked_up <= 0:
            return None
        return self.shards_cached / looked_up

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (one ``runs.jsonl`` line)."""
        return {
            "format": RUNDB_FORMAT_VERSION,
            "run_id": self.run_id,
            "experiment": self.experiment,
            "spec_hash": self.spec_hash,
            "trials": self.trials,
            "shards_total": self.shards_total,
            "shards_executed": self.shards_executed,
            "shards_cached": self.shards_cached,
            "elapsed_seconds": self.elapsed_seconds,
            "drift": self.drift,
            "csv_sha256": self.csv_sha256,
            "created": self.created,
            "extra": self.extra,
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "RunRecord":
        """Inverse of :meth:`to_dict`.

        ``elapsed_seconds`` and ``created`` must be finite numbers, and
        ``extra`` must hold no infinity or NaN, else ``ValueError``:
        ``repro stats --json`` prints strict JSON, so such a line is damage
        like a torn one.
        """
        elapsed_seconds = finite_float(payload.get("elapsed_seconds", 0.0))
        created = finite_float(payload.get("created", 0.0))
        if elapsed_seconds is None or created is None:
            raise ValueError("elapsed_seconds and created must be finite")
        extra = dict(payload.get("extra", {}))
        json.dumps(extra, allow_nan=False)
        return RunRecord(
            run_id=str(payload["run_id"]),
            experiment=str(payload["experiment"]),
            spec_hash=str(payload["spec_hash"]),
            trials=int(payload["trials"]),
            shards_total=int(payload.get("shards_total", 0)),
            shards_executed=int(payload.get("shards_executed", 0)),
            shards_cached=int(payload.get("shards_cached", 0)),
            elapsed_seconds=elapsed_seconds,
            drift=str(payload.get("drift", "MISSING")),
            csv_sha256=str(payload.get("csv_sha256", "")),
            created=created,
            extra=extra,
        )


class RunDB:
    """The append-only pipeline run database under one directory."""

    def __init__(self, root: PathLike) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def runs_path(self) -> Path:
        """The append-only record log."""
        return self._root / "runs.jsonl"

    def append(self, record: RunRecord) -> None:
        """Append one record (single line write)."""
        line = json.dumps(
            record.to_dict(), sort_keys=True, separators=(",", ":")
        )
        # One write call in append mode: concurrent appenders interleave
        # whole lines on POSIX, and a crash mid-write leaves at most one
        # torn trailing line, which records() skips.
        with open(self.runs_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def records(self) -> List[RunRecord]:
        """Every parseable record, in append order.

        Damage tolerance mirrors the ledger reader: lines that do not
        parse as JSON, lack required fields or hold unconvertible values
        (torn tails, foreign garbage, ``"trials": 1e999``) are skipped,
        never fatal.
        """
        try:
            text = self.runs_path.read_text(encoding="utf-8")
        except OSError:
            return []
        records: List[RunRecord] = []
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                records.append(RunRecord.from_dict(json.loads(line)))
            except DAMAGE_ERRORS:
                continue
        return records

    def index(self) -> Dict[str, Any]:
        """Per-experiment summary of the records: run count and the last
        run's id, spec hash and drift verdict."""
        records = self.records()
        experiments: Dict[str, Dict[str, Any]] = {}
        for record in records:
            entry = experiments.setdefault(record.experiment, {"runs": 0})
            entry["runs"] += 1
            entry["last_run_id"] = record.run_id
            entry["last_spec_hash"] = record.spec_hash
            entry["last_drift"] = record.drift
        return {
            "format": RUNDB_FORMAT_VERSION,
            "records": len(records),
            "experiments": experiments,
        }
