"""Sharded sweep execution across worker processes.

:func:`run_sweep` takes a :class:`~repro.sweep.spec.SweepSpec`, looks every
shard up in the :class:`~repro.sweep.store.ResultStore` (when one is
given), and executes only the misses — inline for ``jobs=1``, else on a
``ProcessPoolExecutor`` whose workers each run whole shards through the
fleet or reference engine (:mod:`repro.experiments.runner`).  Because a
shard derives its seeds from its *global* trial window (via
``derive_seed_block``'s ``start`` offset), the assembled rows are bit
identical to the sequential ``run_trials`` / ``run_fleet_trials`` call for
the same cell, regardless of job count, shard width, cache state or the
order workers finish in.  Each worker caps OpenBLAS at ``cores //
workers`` threads (at least one), so parallel shards do not oversubscribe
the cores inside the dense backend's GEMMs; the parent's own BLAS threads
and environment are left as they are.

Executed shards are written back to the store as they complete, so an
interrupted sweep resumes from its last finished shard.

Worker failures do not sink the sweep: a shard whose execution raises is
retried up to :data:`SHARD_ATTEMPTS` times in total, and if it still
fails the sweep *finishes the remaining shards* and reports the casualty
in :attr:`SweepReport.failed_shards` (ticking ``sweep.shard.retry`` /
``sweep.shard.failed`` counters along the way).  Cells with a failed
shard are left out of :attr:`SweepResult.outcomes`; because every
*successful* shard was already written to the store, rerunning the same
sweep recomputes only the failed window.

Telemetry (:mod:`repro.telemetry`) is wired through the parent process:
every shard lookup/execution becomes one ``sweep.shard`` span (with the
shard's sha256 content hash, cell coordinates and cached flag as attrs),
cache hits/misses tick ``sweep.cache.*`` counters, a partially-cached
sweep emits a ``sweep.resume`` annotation, and the executed-vs-wall-clock
ratio lands in the ``sweep.worker_utilisation`` gauge.  Workers time
themselves and return the number, so shard spans are complete at any job
count; probes fired *inside* worker processes (engine-level telemetry)
only reach the collector for inline execution.  All of it is out of band
— with no collector installed the probes are no-ops and the sweep's rows
are byte-identical either way.
"""

from __future__ import annotations

import ctypes
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.algorithms.registry import make_algorithm
from repro.experiments.runner import TrialOutcome, run_fleet_trials, run_trials
from repro.sweep.spec import FLEET_RULES, CellSpec, ShardSpec, SweepSpec
from repro.sweep.store import PathLike, ResultStore
from repro.telemetry import probes

#: Executions attempted per shard before it is reported failed (one
#: initial try plus two retries).
SHARD_ATTEMPTS = 3

#: Test hook: when set, called as ``hook(shard, attempt)`` at the top of
#: every shard execution; raising fails that attempt.  Module-level so a
#: value patched in before the pool starts reaches ``fork``-based worker
#: processes too.
_failure_injector: Optional[Callable[[ShardSpec, int], None]] = None


@dataclass(frozen=True)
class ShardTiming:
    """Wall time of one shard within a sweep (lookup or execution)."""

    algorithm: str
    n: int
    lo: int
    hi: int
    seconds: float
    cached: bool
    content_hash: str

    def label(self) -> str:
        """Compact ``algorithm[n=..] [lo, hi)`` tag for report lines."""
        return f"{self.algorithm}[n={self.n} {self.lo}:{self.hi}]"


@dataclass(frozen=True)
class FailedShard:
    """A shard that kept raising after every retry."""

    algorithm: str
    n: int
    lo: int
    hi: int
    content_hash: str
    attempts: int
    error: str

    def label(self) -> str:
        """Compact ``algorithm[n=..] [lo, hi)`` tag for report lines."""
        return f"{self.algorithm}[n={self.n} {self.lo}:{self.hi}]"


@dataclass
class SweepReport:
    """What a sweep actually did (cache hits vs. executed work).

    ``timings`` keeps one entry per distinct shard: executed shards carry
    their measured compute wall time, cached shards the (much smaller)
    store lookup time — the numbers ``_execute_shard_timed`` and the
    store used to measure and drop.  ``failed_shards`` lists shards that
    raised on every attempt; ``shards_retried`` counts the individual
    retry attempts that preceded any success or failure.
    """

    shards_total: int = 0
    shards_executed: int = 0
    shards_cached: int = 0
    seconds_executed: float = 0.0
    timings: List[ShardTiming] = field(default_factory=list)
    shards_retried: int = 0
    failed_shards: List[FailedShard] = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> Optional[float]:
        """Cached fraction of all distinct shard lookups, or ``None``."""
        looked_up = self.shards_executed + self.shards_cached
        if looked_up <= 0:
            return None
        return self.shards_cached / looked_up

    def slowest_shards(self, limit: int = 3) -> List[ShardTiming]:
        """The executed shards with the largest wall time, slowest first."""
        executed = [t for t in self.timings if not t.cached]
        executed.sort(key=lambda timing: -timing.seconds)
        return executed[:limit]

    def summary(self) -> str:
        """One human-readable line for CLI output."""
        rate = self.cache_hit_rate
        line = (
            f"shards: total={self.shards_total} "
            f"executed={self.shards_executed} "
            f"cached={self.shards_cached} "
            f"hit-rate={'-' if rate is None else f'{100.0 * rate:.0f}%'} "
            f"compute={self.seconds_executed:.3f}s"
        )
        slowest = self.slowest_shards(1)
        if slowest:
            line += (
                f" slowest={slowest[0].label()} {slowest[0].seconds:.3f}s"
            )
        if self.shards_retried:
            line += f" retried={self.shards_retried}"
        if self.failed_shards:
            first = self.failed_shards[0]
            line += (
                f" failed={len(self.failed_shards)}"
                f" ({first.label()}: {first.error})"
            )
        return line


@dataclass
class SweepResult:
    """Assembled rows of one sweep, keyed by cell, plus its report."""

    spec: SweepSpec
    outcomes: Dict[CellSpec, List[TrialOutcome]] = field(default_factory=dict)
    report: SweepReport = field(default_factory=SweepReport)

    def rows(self, cell: CellSpec) -> List[TrialOutcome]:
        """All trial rows of one cell, in global trial order.

        Raises ``KeyError`` with the failure context when the cell is
        absent because one of its shards failed (see
        :attr:`SweepReport.failed_shards`).
        """
        try:
            return self.outcomes[cell]
        except KeyError:
            raise KeyError(
                f"no rows for cell {cell.algorithm}[n={cell.num_vertices}]"
                f" — a shard failed: {self.report.summary()}"
            ) from None


def execute_shard(shard: ShardSpec) -> List[TrialOutcome]:
    """Run one shard's trial window on the engine its cell names.

    This is the worker entry point: it takes only the picklable spec and
    rebuilds factories locally, so it runs identically inline and in a
    forked/spawned pool process.
    """
    cell = shard.cell
    window = (shard.lo, shard.hi)
    if cell.engine == "reference":
        return run_trials(
            lambda: make_algorithm(cell.algorithm),
            cell.graph_factory(),
            cell.trials,
            cell.master_seed,
            faults=cell.fault_model(),
            max_rounds=cell.max_rounds,
            trial_range=window,
        )
    return run_fleet_trials(
        FLEET_RULES[cell.algorithm],
        cell.graph_factory(),
        cell.trials,
        cell.master_seed,
        graphs=cell.graphs,
        max_rounds=cell.max_rounds,
        trial_range=window,
        faults=cell.fault_model(),
        rng_mode=cell.rng_mode,
        backend=cell.backend,
    )


def _openblas_function(name: str) -> Optional[Callable[..., int]]:
    """OpenBLAS's ``openblas_<name>`` from a library loaded in this process
    (numpy's bundled ``scipy_openblas`` build or a system one, with or
    without the 64-bit-interface suffix), or ``None``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = sorted(
                {line.split()[-1] for line in maps if "openblas" in line.lower()}
            )
    except OSError:
        return None
    for library in libraries:
        lib = ctypes.CDLL(library)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                symbol = f"{prefix}_{name}{suffix}"
                if hasattr(lib, symbol):
                    return getattr(lib, symbol)
    return None


def _cap_blas_threads(threads: int) -> None:
    """Pool initializer: at most ``threads`` OpenBLAS threads in this
    worker.  Without it every worker keeps the parent's pool of one
    thread per core, and ``jobs`` workers oversubscribe the cores inside
    the dense backend's GEMMs.  The parent process is left untouched."""
    setter = _openblas_function("set_num_threads")
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(threads)


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The sweep's process pool, ``cores // workers`` BLAS threads (at
    least one) in each worker."""
    cores = os.cpu_count() or 1
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_cap_blas_threads,
        initargs=(max(1, cores // workers),),
    )


def _execute_shard_timed(
    shard: ShardSpec, attempt: int = 0
) -> Tuple[List[TrialOutcome], float]:
    if _failure_injector is not None:
        _failure_injector(shard, attempt)
    start = time.perf_counter()
    rows = execute_shard(shard)
    return rows, time.perf_counter() - start


def _coordinates(shard: ShardSpec) -> Dict[str, Any]:
    """Where a shard sits in its sweep, for reports and telemetry."""
    return {
        "algorithm": shard.cell.algorithm,
        "n": shard.cell.num_vertices,
        "lo": shard.lo,
        "hi": shard.hi,
    }


def _timing(
    shard: ShardSpec, digest: str, seconds: float, cached: bool
) -> ShardTiming:
    return ShardTiming(
        **_coordinates(shard),
        seconds=seconds,
        cached=cached,
        content_hash=digest,
    )


def run_sweep(
    spec: SweepSpec,
    store: Optional[Union[ResultStore, PathLike]] = None,
    jobs: int = 1,
) -> SweepResult:
    """Execute a sweep, serving shards from the store where possible.

    ``jobs`` caps the number of concurrent worker processes; results do
    not depend on it.  ``store=None`` disables caching entirely.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)

    shards = spec.shards()
    # Each shard is hashed once; the digest travels with it from here.
    digests = [shard.content_hash() for shard in shards]
    report = SweepReport(shards_total=len(shards))

    # Deduplicate by content hash: identical shards (e.g. the same cell
    # listed twice) execute once and share rows.
    by_hash: Dict[str, ShardSpec] = {}
    for digest, shard in zip(digests, shards):
        by_hash.setdefault(digest, shard)
    distinct = len(by_hash)

    rows_by_hash: Dict[str, List[TrialOutcome]] = {}
    missing: List[Tuple[str, ShardSpec]] = []
    for digest, shard in by_hash.items():
        lookup_start = time.perf_counter()
        cached = store.get(shard, digest) if store is not None else None
        if cached is not None:
            lookup_seconds = time.perf_counter() - lookup_start
            rows_by_hash[digest] = cached
            report.shards_cached += 1
            report.timings.append(
                _timing(shard, digest, lookup_seconds, cached=True)
            )
            probes.count("sweep.cache.hit")
            probes.span_event(
                "sweep.shard",
                lookup_seconds,
                **_coordinates(shard),
                cached=True,
                content_hash=digest,
            )
        else:
            missing.append((digest, shard))

    if report.shards_cached and missing:
        # A partially warm cache means this sweep resumed earlier work.
        probes.annotate(
            "sweep.resume",
            cached=report.shards_cached,
            missing=len(missing),
        )

    def record(
        digest: str, shard: ShardSpec, rows: List[TrialOutcome],
        elapsed: float,
    ) -> None:
        rows_by_hash[digest] = rows
        report.shards_executed += 1
        report.seconds_executed += elapsed
        report.timings.append(_timing(shard, digest, elapsed, cached=False))
        if store is not None:
            store.put(shard, digest, rows)
        probes.count("sweep.cache.miss")
        probes.span_event(
            "sweep.shard",
            elapsed,
            **_coordinates(shard),
            cached=False,
            content_hash=digest,
            index=report.shards_executed,
            total=distinct - report.shards_cached,
        )

    def record_retry(shard: ShardSpec, attempt: int, exc: BaseException) -> None:
        report.shards_retried += 1
        probes.count("sweep.shard.retry")
        probes.annotate(
            "sweep.shard.retry",
            **_coordinates(shard),
            attempt=attempt,
            error=f"{type(exc).__name__}: {exc}",
        )

    def record_failure(
        digest: str, shard: ShardSpec, exc: BaseException
    ) -> None:
        report.failed_shards.append(
            FailedShard(
                **_coordinates(shard),
                content_hash=digest,
                attempts=SHARD_ATTEMPTS,
                error=f"{type(exc).__name__}: {exc}",
            )
        )
        probes.count("sweep.shard.failed")
        probes.annotate(
            "sweep.shard.failed",
            **_coordinates(shard),
            content_hash=digest,
            error=f"{type(exc).__name__}: {exc}",
        )

    workers = 1
    execute_start = time.perf_counter()
    if len(missing) > 1 and jobs > 1:
        workers = min(jobs, len(missing))
        with _worker_pool(workers) as pool:
            # Retries are resubmitted to the same pool, so ``as_completed``
            # over a fixed future set would miss them — drain with a
            # wait() loop over a mutating pending map instead.
            pending = {
                pool.submit(_execute_shard_timed, shard, 0): (digest, shard, 0)
                for digest, shard in missing
            }
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    digest, shard, attempt = pending.pop(future)
                    try:
                        rows, elapsed = future.result()
                    except Exception as exc:
                        if attempt + 1 < SHARD_ATTEMPTS:
                            record_retry(shard, attempt, exc)
                            pending[
                                pool.submit(
                                    _execute_shard_timed, shard, attempt + 1
                                )
                            ] = (digest, shard, attempt + 1)
                        else:
                            record_failure(digest, shard, exc)
                        continue
                    record(digest, shard, rows, elapsed)
    else:
        for digest, shard in missing:
            for attempt in range(SHARD_ATTEMPTS):
                try:
                    rows, elapsed = _execute_shard_timed(shard, attempt)
                except Exception as exc:
                    if attempt + 1 < SHARD_ATTEMPTS:
                        record_retry(shard, attempt, exc)
                        continue
                    record_failure(digest, shard, exc)
                else:
                    record(digest, shard, rows, elapsed)
                break

    if probes.enabled() and report.shards_executed:
        wall = time.perf_counter() - execute_start
        probes.gauge("sweep.workers", float(workers))
        if wall > 0.0:
            probes.gauge(
                "sweep.worker_utilisation",
                report.seconds_executed / (wall * workers),
            )

    # spec.shards() lists each cell's windows in order, from lo = 0.
    windows: List[Tuple[CellSpec, List[str]]] = []
    for digest, shard in zip(digests, shards):
        if shard.lo == 0:
            windows.append((shard.cell, []))
        windows[-1][1].append(digest)
    result = SweepResult(spec=spec, report=report)
    for cell, cell_digests in windows:
        # A cell with a shard that failed all its attempts is reported
        # via failed_shards instead of rows.
        if all(digest in rows_by_hash for digest in cell_digests):
            result.outcomes[cell] = [
                row for digest in cell_digests for row in rows_by_hash[digest]
            ]
    return result
