"""Zero-cost instrumentation probes.

The probe functions — :func:`span`, :func:`count`, :func:`gauge`,
:func:`annotate` — are sprinkled through the hot layers (engines, sweep
store, orchestrator, CLI).  By default no collector is installed and every
probe is a no-op costing one module-global ``is None`` check; code that
would pay to *compute* a telemetry value first asks :func:`enabled` and
skips the computation entirely.  Installing a :class:`Collector` (usually
via :func:`capture`) turns the probes into structured event emitters.

Hard contract — telemetry is **out of band**: probes never draw
randomness, never touch engine state, and never change control flow, so
runs are bit-identical whether probes are on or off
(``tests/telemetry/test_transparency.py`` enforces this across every
engine).

Event shape
-----------
Every probe call becomes one JSON-safe dict:

- ``{"event": "span", "name": ..., "seconds": ..., "attrs": {...}}``
- ``{"event": "counter", "name": ..., "value": ..., "attrs": {...}}``
- ``{"event": "gauge", "name": ..., "value": ..., "attrs": {...}}``
- ``{"event": "annotation", "name": ..., "attrs": {...}}``

The collector aggregates counters/gauges in memory and forwards every
event to its sinks (a :class:`~repro.telemetry.ledger.RunLedger`, a CLI
progress printer, a test list — anything callable).

Worker processes: probes fired inside a ``ProcessPoolExecutor`` worker
land in that worker's (usually absent) collector, not the parent's.  The
orchestrator therefore re-emits per-shard spans in the parent from the
timings the workers return, so sweep telemetry is complete at any job
count; per-round engine telemetry is only captured for inline execution
(``jobs=1``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Event = Dict[str, Any]
Sink = Callable[[Event], None]

#: The installed collector; ``None`` means telemetry is off (the default).
_collector: Optional["Collector"] = None


class Collector:
    """Aggregates probe events and forwards them to sinks.

    ``counters`` accumulate (monotonic adds), ``gauges`` keep the last
    value, ``spans`` keep per-name ``(count, total_seconds, max_seconds)``
    aggregates; the raw event stream goes to every sink in order.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.spans: Dict[str, Tuple[int, float, float]] = {}
        self._sinks: List[Sink] = []

    def add_sink(self, sink: Sink) -> None:
        """Forward all future events to ``sink`` as well."""
        self._sinks.append(sink)

    def emit(self, event: Event) -> None:
        """Record one event and forward it to every sink."""
        kind = event["event"]
        if kind == "counter":
            name = event["name"]
            self.counters[name] = self.counters.get(name, 0.0) + event["value"]
        elif kind == "gauge":
            self.gauges[event["name"]] = event["value"]
        elif kind == "span":
            name = event["name"]
            seconds = event["seconds"]
            n, total, worst = self.spans.get(name, (0, 0.0, 0.0))
            self.spans[name] = (n + 1, total + seconds, max(worst, seconds))
        for sink in self._sinks:
            sink(event)

    def span_totals(self) -> Dict[str, float]:
        """Total seconds per span name (the "elapsed phases" view)."""
        return {name: total for name, (_, total, _) in self.spans.items()}


class _NullSpan:
    """The shared do-nothing context manager returned when telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: measures wall time, emits one event on exit."""

    __slots__ = ("_collector", "_name", "_attrs", "_start")

    def __init__(self, collector: Collector, name: str, attrs: Dict[str, Any]):
        self._collector = collector
        self._name = name
        self._attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc: Any) -> bool:
        self._collector.emit(
            {
                "event": "span",
                "name": self._name,
                "seconds": time.perf_counter() - self._start,
                "attrs": self._attrs,
            }
        )
        return False


def enabled() -> bool:
    """Whether a collector is installed.

    Guard any *computation* done only to feed a probe with this, so the
    disabled path stays free of even the arithmetic.
    """
    return _collector is not None


def collector() -> Optional[Collector]:
    """The installed collector, or ``None``."""
    return _collector


def span(name: str, **attrs: Any):
    """Context manager timing a block; no-op when telemetry is off."""
    if _collector is None:
        return _NULL_SPAN
    return _Span(_collector, name, attrs)


def span_event(name: str, seconds: float, **attrs: Any) -> None:
    """Record an already-measured duration as a span event.

    Used where the timing happened elsewhere (e.g. inside a worker
    process) and only the number crossed back.
    """
    if _collector is None:
        return
    _collector.emit(
        {"event": "span", "name": name, "seconds": float(seconds),
         "attrs": attrs}
    )


def count(name: str, value: float = 1, **attrs: Any) -> None:
    """Add ``value`` to a monotonic counter; no-op when telemetry is off."""
    if _collector is None:
        return
    _collector.emit(
        {"event": "counter", "name": name, "value": value, "attrs": attrs}
    )


def gauge(name: str, value: float, **attrs: Any) -> None:
    """Set a gauge to ``value``; no-op when telemetry is off."""
    if _collector is None:
        return
    _collector.emit(
        {"event": "gauge", "name": name, "value": value, "attrs": attrs}
    )


def annotate(name: str, **attrs: Any) -> None:
    """Record a structured annotation (string-valued facts, e.g. hashes)."""
    if _collector is None:
        return
    _collector.emit({"event": "annotation", "name": name, "attrs": attrs})


@contextmanager
def capture(
    target: Optional[Collector] = None,
) -> Iterator[Collector]:
    """Install a collector for the duration of the ``with`` block.

    Nested captures stack: the previous collector (possibly ``None``) is
    restored on exit, even on error.  Returns the active collector so
    callers can attach sinks or read aggregates afterwards.
    """
    global _collector
    previous = _collector
    active = target if target is not None else Collector()
    _collector = active
    try:
        yield active
    finally:
        _collector = previous
