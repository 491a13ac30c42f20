"""Content-addressed on-disk store of shard results.

Layout (under one cache root)::

    <root>/ab/<hash>.json   {"format", "content_hash", "shard", "rows", "checksum"}

where ``<hash>`` is :meth:`ShardSpec.content_hash` and ``ab`` its first
two hex digits.  ``shard`` is the full shard spec and ``rows`` holds the
:class:`TrialOutcome` fields as columns, one list per field.
:func:`write_checked` (canonical JSON plus a ``checksum`` over the rest,
in one atomic write) and :func:`read_checked` are the one read/write path
of every checksummed cache document; the paper pipeline's whole-artefact
cache uses them too.  Readers treat anything inconsistent — a missing or
unparsable file, a checksum, format or content-hash mismatch, columns of
unequal length, a trial column other than the shard's window, a count
that is not an ``int``, a non-finite mean — as a cache miss, and the
orchestrator recomputes the shard and :meth:`ResultStore.put` rewrites it.

Invalidation is purely key-driven: results never expire, they are orphaned
when their key changes (spec format version bump, changed seed discipline,
changed cell parameters).  ``STORE_FORMAT_VERSION`` covers the *file
layout* and is checked at read time; :data:`~repro.sweep.spec.SPEC_FORMAT_VERSION`
covers *result semantics* and is folded into the hash itself.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from operator import attrgetter
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.experiments.runner import TrialOutcome
from repro.sweep.spec import ShardSpec, canonical_json, fingerprint_hash
from repro.telemetry import probes

PathLike = Union[str, Path]

#: Bump when the entry layout changes (read-time check).  Format 3 is
#: one columnar JSON file per shard; format 2's ``.jsonl`` rows and
#: ``.manifest.json`` files sit at other names, so they are never read.
STORE_FORMAT_VERSION = 3

_COLUMNS = tuple(field.name for field in dataclasses.fields(TrialOutcome))
_row_values = attrgetter(*_COLUMNS)

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
    # A fresh name opened with mode 0o666, so the umask sets the final
    # mode (a NamedTemporaryFile is always 0600, which os.replace keeps).
    temp = path.parent / f".tmp-{path.name}-{os.urandom(8).hex()}"
    fd = os.open(temp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def write_checked(path: Path, payload: Dict[str, Any]) -> None:
    """Atomically write ``payload`` plus a ``checksum`` key, the
    :func:`fingerprint_hash` of the payload, as canonical JSON."""
    text = canonical_json({**payload, "checksum": fingerprint_hash(payload)})
    atomic_write_text(path, text)
    # Canonical JSON is ASCII, so the character count is the byte count.
    probes.count("store.bytes_written", len(text))


def read_checked(path: Path) -> Optional[Dict[str, Any]]:
    """The payload :func:`write_checked` stored at ``path`` (checksum
    removed), or ``None`` if the file is missing, unparsable, not an
    object, or its checksum does not match its content."""
    try:
        text = path.read_text(encoding="utf-8")
        payload = json.loads(text)
        if not isinstance(payload, dict) or payload.pop(
            "checksum", None
        ) != fingerprint_hash(payload):
            return None
    except DAMAGE_ERRORS:
        return None
    probes.count("store.bytes_read", len(text))
    return payload


def _exact(values: List[Any], kind: type) -> bool:
    # Exact types, so neither 2.5 nor True passes for a count.
    return all(type(value) is kind for value in values)


def _outcomes(columns: Dict[str, Any], shard: ShardSpec) -> List[TrialOutcome]:
    """The rows of an entry's ``columns``; raises one of
    :data:`DAMAGE_ERRORS` on any damage."""
    values = [columns[name] for name in _COLUMNS]
    if not all(
        type(column) is list and len(column) == shard.trials
        for column in values
    ):
        raise ValueError("columns are not lists of the shard's length")
    trial, rounds, mis_size, mean, messages, bits, repair, recovered = values
    if (
        not _exact(trial, int)
        or trial != list(range(shard.lo, shard.hi))
        or not all(_exact(c, int) for c in (rounds, mis_size, messages, bits))
        or not _exact(repair, list)
        or not all(_exact(entry, int) for entry in repair)
        or not all(type(m) in (float, int) and math.isfinite(m) for m in mean)
        or not _exact(recovered, bool)
    ):
        raise ValueError("damaged rows")
    return list(
        map(
            TrialOutcome, trial, rounds, mis_size, map(float, mean),
            messages, bits, map(tuple, repair), recovered,
        )
    )


def _verified(entry: Dict[str, Any]) -> bool:
    """Whether the entry's rows passed the MIS check when they were run.

    Every shard is verified now, but earlier versions could store a cell
    with ``validate`` false; such an entry is a miss, so it is recomputed
    and checked rather than served unchecked.
    """
    cell = entry["shard"]["cell"]
    return type(cell) is dict and cell.get("validate", True) is True


class ResultStore:
    """A content-addressed cache of shard results under one directory."""

    def __init__(self, root: PathLike) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: str) -> Path:
        return self._root / digest[:2] / f"{digest}.json"

    def get(
        self, shard: ShardSpec, digest: str
    ) -> Optional[List[TrialOutcome]]:
        """Stored rows for the shard whose content hash is ``digest``, or
        ``None`` on any inconsistency."""
        entry = read_checked(self._path(digest))
        rows = None
        if (
            entry is not None
            and entry.get("format") == STORE_FORMAT_VERSION
            and entry.get("content_hash") == digest
        ):
            try:
                if _verified(entry):
                    rows = _outcomes(entry["rows"], shard)
            except DAMAGE_ERRORS:
                pass
        probes.count("store.miss" if rows is None else "store.hit")
        return rows

    def put(
        self, shard: ShardSpec, digest: str, outcomes: List[TrialOutcome]
    ) -> None:
        """Atomically store the rows of the shard whose content hash is
        ``digest`` as one checksummed entry."""
        if len(outcomes) != shard.trials:
            raise ValueError(
                f"shard covers {shard.trials} trials but got "
                f"{len(outcomes)} outcomes"
            )
        columns = zip(*map(_row_values, outcomes))
        write_checked(
            self._path(digest),
            {
                "format": STORE_FORMAT_VERSION,
                "content_hash": digest,
                "shard": shard.to_dict(),
                "rows": dict(zip(_COLUMNS, map(list, columns))),
            },
        )
        probes.count("store.puts")
