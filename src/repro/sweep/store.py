"""Content-addressed on-disk store of shard results.

Layout (under one cache root)::

    <root>/ab/<hash>.jsonl          one TrialOutcome per line
    <root>/ab/<hash>.manifest.json  provenance: shard spec, code version,
                                    row count, sha256 of the rows text,
                                    wall-clock, creation time

where ``<hash>`` is :meth:`ShardSpec.content_hash` and ``ab`` its first
two hex digits.  Writes are atomic (temp file + ``os.replace``) and the
manifest lands *after* the rows, so a visible manifest always implies
complete rows; readers treat anything inconsistent — missing files,
unparsable lines, non-integer counts, a non-finite mean, trials outside
the shard's window or out of order, row-count or version mismatches,
rows whose text no longer matches the manifest's sha256 — as a cache
miss, and the orchestrator simply recomputes the shard and
:meth:`ResultStore.put` rewrites it.

Invalidation is purely key-driven: results never expire, they are orphaned
when their key changes (spec format version bump, changed seed discipline,
changed cell parameters).  ``STORE_FORMAT_VERSION`` covers the *file
layout* and is checked at read time; :data:`~repro.sweep.spec.SPEC_FORMAT_VERSION`
covers *result semantics* and is folded into the hash itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.experiments.runner import TrialOutcome
from repro.sweep.spec import ShardSpec
from repro.telemetry import probes

PathLike = Union[str, Path]

#: Bump when the JSONL/manifest layout changes (read-time check).
#: Format 2 added the manifest's ``rows_sha256``.
STORE_FORMAT_VERSION = 2

_ROW_FIELDS = ("trial", "rounds", "mis_size", "mean_beeps_per_node", "messages", "bits")
_COUNT_FIELDS = ("trial", "rounds", "mis_size", "messages", "bits")

#: What reading a damaged file can raise; readers skip the damage (the
#: store treats it as a miss).
DAMAGE_ERRORS = (
    OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError
)


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The write discipline every on-disk artefact of the sweep subsystem
    uses: a reader never sees a half-written file — either the old bytes,
    or the complete new ones.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w",
        encoding="utf-8",
        dir=path.parent,
        prefix=f".tmp-{path.name}-",
        delete=False,
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class ShardManifest:
    """Provenance of one stored shard."""

    content_hash: str
    store_format: int
    code_version: str
    rows: int
    elapsed_seconds: float
    created: float
    shard: Dict[str, Any]
    #: sha256 of the rows file's text: a row whose values were edited
    #: (still well-typed, still in trial order) is a miss, not a hit.
    rows_sha256: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form."""
        return {
            "content_hash": self.content_hash,
            "store_format": self.store_format,
            "code_version": self.code_version,
            "rows": self.rows,
            "elapsed_seconds": self.elapsed_seconds,
            "created": self.created,
            "shard": self.shard,
            "rows_sha256": self.rows_sha256,
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "ShardManifest":
        """Inverse of :meth:`to_dict`."""
        return ShardManifest(
            content_hash=payload["content_hash"],
            store_format=int(payload["store_format"]),
            code_version=payload["code_version"],
            rows=int(payload["rows"]),
            elapsed_seconds=float(payload["elapsed_seconds"]),
            created=float(payload.get("created", 0.0)),
            shard=payload["shard"],
            rows_sha256=str(payload["rows_sha256"]),
        )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _row_to_json(outcome: TrialOutcome) -> str:
    # Churn fields are serialised only when non-default so that rows from
    # fault-free (and crash-only) cells keep their pre-churn byte layout.
    payload = {name: getattr(outcome, name) for name in _ROW_FIELDS}
    if outcome.repair_rounds:
        payload["repair_rounds"] = list(outcome.repair_rounds)
    if not outcome.recovered:
        payload["recovered"] = False
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _row_from_json(line: str) -> TrialOutcome:
    """One stored row; raises one of :data:`DAMAGE_ERRORS` on any damage."""
    payload = json.loads(line)
    counts = [payload[name] for name in _COUNT_FIELDS]
    mean_beeps = payload["mean_beeps_per_node"]
    repair_rounds = tuple(payload.get("repair_rounds", ()))
    recovered = payload.get("recovered", True)
    # Exact types, so neither 2.5 nor True passes for a count.
    if (
        any(type(value) is not int for value in counts)
        or any(type(value) is not int for value in repair_rounds)
        or type(mean_beeps) not in (float, int)
        or not math.isfinite(mean_beeps)
        or type(recovered) is not bool
    ):
        raise ValueError(f"damaged row {line!r}")
    trial, rounds, mis_size, messages, bits = counts
    return TrialOutcome(
        trial, rounds, mis_size, float(mean_beeps), messages, bits,
        repair_rounds, recovered,
    )


class ResultStore:
    """A content-addressed cache of shard results under one directory."""

    def __init__(self, root: PathLike) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        """The cache root directory."""
        return self._root

    def rows_path(self, shard: ShardSpec) -> Path:
        """Where the shard's JSONL rows live."""
        digest = shard.content_hash()
        return self._root / digest[:2] / f"{digest}.jsonl"

    def manifest_path(self, shard: ShardSpec) -> Path:
        """Where the shard's provenance manifest lives."""
        digest = shard.content_hash()
        return self._root / digest[:2] / f"{digest}.manifest.json"

    def _atomic_write(self, path: Path, text: str) -> None:
        atomic_write_text(path, text)

    def manifest(self, shard: ShardSpec) -> Optional[ShardManifest]:
        """The shard's manifest, or ``None`` if absent/unreadable/stale."""
        path = self.manifest_path(shard)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            manifest = ShardManifest.from_dict(payload)
        except DAMAGE_ERRORS:
            return None
        if manifest.store_format != STORE_FORMAT_VERSION:
            return None
        if manifest.content_hash != shard.content_hash():
            return None
        return manifest

    def get(self, shard: ShardSpec) -> Optional[List[TrialOutcome]]:
        """Stored rows for the shard, or ``None`` on any inconsistency."""
        manifest = self.manifest(shard)
        if manifest is None:
            probes.count("store.miss")
            return None
        try:
            text = self.rows_path(shard).read_text(encoding="utf-8")
            if _sha256(text) != manifest.rows_sha256:
                raise ValueError("rows do not match the manifest checksum")
            rows = [
                _row_from_json(line)
                for line in text.splitlines()
                if line.strip()
            ]
        except DAMAGE_ERRORS:
            probes.count("store.miss")
            return None
        trials = [row.trial for row in rows]
        if len(rows) != manifest.rows or trials != list(range(shard.lo, shard.hi)):
            probes.count("store.miss")
            return None
        probes.count("store.hit")
        # JSON rows are ASCII, so the character count is the byte count.
        probes.count("store.bytes_read", len(text))
        return rows

    def put(
        self,
        shard: ShardSpec,
        outcomes: List[TrialOutcome],
        elapsed_seconds: float = 0.0,
    ) -> ShardManifest:
        """Atomically store a shard's rows, then its manifest."""
        if len(outcomes) != shard.trials:
            raise ValueError(
                f"shard covers {shard.trials} trials but got "
                f"{len(outcomes)} outcomes"
            )
        from repro import __version__

        rows_text = "".join(_row_to_json(o) + "\n" for o in outcomes)
        self._atomic_write(self.rows_path(shard), rows_text)
        probes.count("store.puts")
        probes.count("store.bytes_written", len(rows_text))
        manifest = ShardManifest(
            content_hash=shard.content_hash(),
            store_format=STORE_FORMAT_VERSION,
            code_version=__version__,
            rows=len(outcomes),
            elapsed_seconds=float(elapsed_seconds),
            created=time.time(),
            shard=shard.to_dict(),
            rows_sha256=_sha256(rows_text),
        )
        self._atomic_write(
            self.manifest_path(shard),
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True),
        )
        return manifest
