"""Persistent run database for the paper pipeline.

Every ``repro paper`` invocation appends one :class:`RunRecord` per
regenerated experiment to an on-disk database, keyed by the experiment's
*execution-fingerprint hash* — a sha256 over exactly the distinct shard
content hashes in the :class:`~repro.sweep.orchestrator.SweepReport` of
the experiment's sweep (or, for the bio ablation, which runs no sweep, a
canonical parameter fingerprint).  The record's shard counts come from
the same report.  Two runs with equal keys are guaranteed byte-identical
artefacts, so the database answers "when did these exact bytes last get
produced, and from how warm a cache?" across sessions.

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

        Every value must already have its field's type, else
        ``ValueError``: the counts are ``int`` (not ``bool``), ``trials >=
        1`` and each shard count ``>= 0``; the string fields are ``str``;
        ``elapsed_seconds`` and ``created`` are finite numbers, and
        ``extra`` holds no infinity or NaN (``repro stats --json`` prints
        strict JSON).  A value of another shape is damage like a torn
        line, never coerced.
        """
        elapsed_seconds = finite_float(payload.get("elapsed_seconds", 0.0))
        created = finite_float(payload.get("created", 0.0))
        if elapsed_seconds is None or created is None:
            raise ValueError("elapsed_seconds and created must be finite")
        extra = dict(payload.get("extra", {}))
        json.dumps(extra, allow_nan=False)
        return RunRecord(
            run_id=_exact(payload["run_id"], str),
            experiment=_exact(payload["experiment"], str),
            spec_hash=_exact(payload["spec_hash"], str),
            trials=_count(payload["trials"], 1),
            shards_total=_count(payload.get("shards_total", 0), 0),
            shards_executed=_count(payload.get("shards_executed", 0), 0),
            shards_cached=_count(payload.get("shards_cached", 0), 0),
            elapsed_seconds=elapsed_seconds,
            drift=_exact(payload.get("drift", "MISSING"), str),
            csv_sha256=_exact(payload.get("csv_sha256", ""), str),
            created=created,
            extra=extra,
        )


def _exact(value: Any, kind: type) -> Any:
    """``value`` when its type is exactly ``kind``, else ``ValueError``."""
    if type(value) is not kind:
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    return value


def _count(value: Any, least: int) -> int:
    """``value`` when it is an ``int`` of at least ``least``."""
    if _exact(value, int) < least:
        raise ValueError(f"count must be >= {least}, got {value!r}")
    return value


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
