"""The per-run telemetry ledger: structured JSONL on disk.

One run — one ``repro`` command, one orchestrated sweep, one benchmark —
is one ``run-<id>.jsonl`` file under a ledger root.  The first line is a
``run`` header (command, argv, code/python/numpy versions, start time);
then the probe event stream (:mod:`repro.telemetry.probes`) as it
happens; the last line is an ``end`` record with total elapsed seconds
and the per-phase span totals.  Spec hashes — the same sha256
content hashes the sweep store keys on — arrive as ``annotation`` events
named ``"sweep.shard"`` / ``"sweep.spec"`` and tie ledger rows to cached
results.

Events are appended line-buffered, so a crashed run leaves a readable
ledger with a possibly truncated tail.  Like the result store, readers
treat damage as data loss, not failure: :func:`read_events` skips
unparsable lines (the torn tail of a crashed writer) and keeps
everything before and after them, and :func:`summarize_run` skips
parseable lines whose fields have the wrong type or a non-finite value.

The queries over a ledger directory live in
:mod:`repro.telemetry.stats` (the ``repro stats`` command).
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.telemetry.probes import Collector, Event, capture

PathLike = Union[str, Path]

#: Bump when the ledger line schema changes (readers check the header).
LEDGER_FORMAT_VERSION = 1


def run_versions() -> Dict[str, str]:
    """The code/runtime versions recorded in every run header.

    Also the provenance block of the paper pipeline's HTML report, so
    the ledger and the report agree on what "version" means.
    """
    from repro import __version__

    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unknown"
    return {
        "repro": __version__,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


# Backwards-compatible private alias (pre-paper-pipeline name).
_versions = run_versions


class RunLedger:
    """Appends one run's event stream to ``<root>/run-<id>.jsonl``.

    The ledger is itself a probe *sink*: pass ``ledger.write`` to a
    :class:`~repro.telemetry.probes.Collector` (or use
    :func:`record_run`, which wires everything).
    """

    def __init__(
        self,
        root: PathLike,
        command: str,
        argv: Optional[Sequence[str]] = None,
        run_id: Optional[str] = None,
    ) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        if run_id is None:
            # Wall-clock prefix keeps listings chronological; the pid
            # suffix keeps concurrent runs from colliding.
            run_id = f"{time.time_ns():016x}-{os.getpid()}"
        self.run_id = run_id
        self.path = self._root / f"run-{run_id}.jsonl"
        self._started = time.perf_counter()
        self._handle = self.path.open("a", encoding="utf-8", buffering=1)
        self.write(
            {
                "event": "run",
                "ledger_format": LEDGER_FORMAT_VERSION,
                "run_id": run_id,
                "command": command,
                "argv": list(argv) if argv is not None else [],
                "versions": _versions(),
                "started": time.time(),
            }
        )

    def write(self, event: Event) -> None:
        """Append one event as a compact JSON line (a probe sink)."""
        if self._handle.closed:  # pragma: no cover - defensive
            return
        self._handle.write(
            json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        )

    def close(
        self,
        status: str = "ok",
        phases: Optional[Dict[str, float]] = None,
    ) -> None:
        """Write the ``end`` record and release the file handle."""
        if self._handle.closed:
            return
        self.write(
            {
                "event": "end",
                "status": status,
                "elapsed_seconds": time.perf_counter() - self._started,
                "phases": phases or {},
            }
        )
        self._handle.close()


@contextmanager
def record_run(
    root: PathLike,
    command: str,
    argv: Optional[Sequence[str]] = None,
    collector: Optional[Collector] = None,
) -> Iterator[Collector]:
    """Capture probes into a fresh per-run ledger file.

    Installs a collector (creating one if needed), attaches the ledger as
    a sink, and on exit writes the ``end`` record — ``status="error"``
    when the block raised — with the collector's span totals as the
    elapsed-phases map.
    """
    ledger = RunLedger(root, command, argv=argv)
    with capture(collector) as active:
        active.add_sink(ledger.write)
        try:
            yield active
        except BaseException:
            ledger.close(status="error", phases=active.span_totals())
            raise
        ledger.close(status="ok", phases=active.span_totals())


def read_events(path: PathLike) -> List[Event]:
    """All parseable events of one ledger file, in order.

    Unparsable lines — the torn tail of a crashed or still-running
    writer, or plain corruption — are skipped, mirroring the result
    store's treat-damage-as-miss discipline.  A missing file reads as an
    empty event list.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return []
    events: List[Event] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except (ValueError, RecursionError):
            # RecursionError: pathologically deep nesting ("[[[[...").
            continue
        if isinstance(event, dict) and "event" in event:
            events.append(event)
    return events


@dataclass
class RunSummary:
    """One ledger file, aggregated for reporting."""

    path: Path
    run_id: str = ""
    command: str = ""
    argv: List[str] = field(default_factory=list)
    versions: Dict[str, str] = field(default_factory=dict)
    started: float = 0.0
    status: str = "incomplete"
    elapsed_seconds: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    #: per span name: (count, total seconds, max seconds)
    spans: Dict[str, Tuple[int, float, float]] = field(default_factory=dict)
    #: every "sweep.shard" span with its attrs, for slowest-shard queries
    shard_spans: List[Dict[str, Any]] = field(default_factory=list)
    #: distinct shard/spec content hashes seen in annotations and spans
    spec_hashes: List[str] = field(default_factory=list)
    #: every "sweep.shard.failed" annotation's attrs (shards that kept
    #: raising after all retries), in ledger order
    failed_shards: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def cache_hits(self) -> float:
        """Sweep-level cache hits recorded by the orchestrator."""
        return self.counters.get("sweep.cache.hit", 0.0)

    @property
    def cache_misses(self) -> float:
        """Sweep-level cache misses recorded by the orchestrator."""
        return self.counters.get("sweep.cache.miss", 0.0)

    @property
    def cache_hit_rate(self) -> Optional[float]:
        """Hit fraction over all shard lookups, ``None`` without lookups."""
        total = self.cache_hits + self.cache_misses
        if total <= 0:
            return None
        return self.cache_hits / total

    def slowest_shards(self, limit: int = 3) -> List[Dict[str, Any]]:
        """The executed shards with the largest wall time, slowest first."""
        executed = [
            shard for shard in self.shard_spans
            if not shard.get("cached", False)
        ]
        executed.sort(key=lambda shard: -float(shard.get("seconds", 0.0)))
        return executed[:limit]


def finite_float(value: Any) -> Optional[float]:
    """A JSON number as a finite float; ``None`` for anything else
    (strings, booleans, ``1e999``'s infinity, integers past float range)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def _finite(value: Any) -> float:
    """:func:`finite_float`, with ``ValueError`` in place of ``None``."""
    number = finite_float(value)
    if number is None:
        raise ValueError(f"not a finite number: {value!r}")
    return number


def _finite_attrs(value: Any) -> Dict[str, Any]:
    """A JSON object whose every nested float is finite; ``TypeError`` or
    ``ValueError`` otherwise, since ``repro stats --json`` could not print
    it as strict JSON."""
    attrs = _mapping(value)
    pending: List[Any] = [attrs]
    while pending:  # iterative: a deep nest must not exhaust the stack
        item = pending.pop()
        if isinstance(item, dict):
            pending.extend(item.values())
        elif isinstance(item, list):
            pending.extend(item)
        elif isinstance(item, float) and not math.isfinite(item):
            raise ValueError(f"not a finite number: {item!r}")
    return attrs


def _mapping(value: Any) -> Dict[str, Any]:
    """A JSON object as a dict; ``TypeError`` for anything else."""
    if not isinstance(value, dict):
        raise TypeError(f"not an object: {value!r}")
    return value


def summarize_run(path: PathLike) -> RunSummary:
    """Aggregate one ledger file into a :class:`RunSummary`.

    Each line is checked whole before it touches the summary, so a
    malformed-but-parseable line — a field of the wrong type, a
    non-finite number — loses itself, not the run.
    """
    summary = RunSummary(path=Path(path))

    def note_hash(digest: Any) -> None:
        if digest and str(digest) not in summary.spec_hashes:
            summary.spec_hashes.append(str(digest))

    for event in read_events(path):
        kind = event.get("event")
        try:
            if kind == "run":
                # The whole right side is built before any field is set.
                (summary.run_id, summary.command, summary.argv,
                 summary.versions, summary.started) = (
                    str(event.get("run_id", "")),
                    str(event.get("command", "")),
                    [str(a) for a in event.get("argv", [])],
                    {
                        str(k): str(v)
                        for k, v in _mapping(event.get("versions", {})).items()
                    },
                    _finite(event.get("started", 0.0)),
                )
            elif kind == "end":
                summary.status, summary.elapsed_seconds, summary.phases = (
                    str(event.get("status", "ok")),
                    _finite(event.get("elapsed_seconds", 0.0)),
                    {
                        str(k): _finite(v)
                        for k, v in _mapping(event.get("phases", {})).items()
                    },
                )
            elif kind == "counter":
                name = str(event["name"])
                summary.counters[name] = _finite(
                    summary.counters.get(name, 0.0) + _finite(event["value"])
                )
            elif kind == "gauge":
                summary.gauges[str(event["name"])] = _finite(event["value"])
            elif kind == "span":
                name = str(event["name"])
                seconds = _finite(event["seconds"])
                attrs = dict(_finite_attrs(event.get("attrs", {})))
                n, total, worst = summary.spans.get(name, (0, 0.0, 0.0))
                summary.spans[name] = (
                    n + 1, _finite(total + seconds), max(worst, seconds)
                )
                if name == "sweep.shard":
                    attrs["seconds"] = seconds
                    summary.shard_spans.append(attrs)
                    note_hash(attrs.get("content_hash"))
            elif kind == "annotation":
                attrs = _finite_attrs(event.get("attrs", {}))
                note_hash(attrs.get("content_hash"))
                if event.get("name") == "sweep.shard.failed":
                    summary.failed_shards.append(dict(attrs))
        except (KeyError, TypeError, ValueError):
            # A malformed-but-parseable line loses itself, not the run.
            continue
    return summary
