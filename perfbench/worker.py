"""One benchmark operation in a fresh process.

``run.py`` starts this script once per operation, passing the monotonic
clock reading taken just before the start, so ``setup_s`` covers the
interpreter start, the imports and building the inputs (for
``paper_warm``, copying the filled cache).  The timed part is the
workload's call; the checks run after it.  Times are reported in
reference seconds (``speed.py``), with the raw readings beside them as
``raw_*``; an untraced call is sampled on a timer, a traced one only at
its ends, so that no probe falls inside a span.  The last stdout line
is one JSON record.  With ``--setup-only`` the process stops where the timed
call would start and reports ``setup_s`` alone.  With ``--fill DIR`` it
makes the cold ``paper_warm`` fill in ``DIR`` instead of an operation.

Run directly (with ``src`` on ``PYTHONPATH``) for debugging::

    PYTHONPATH=src python3 perfbench/worker.py --workload paper_cold \
        --seed 1900 --scale tiny --trace 1 --tmp perfbench/out/tmp
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path


def blas_threads() -> int:
    """OpenBLAS's own thread count in this process, or -1 if unknown."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = sorted(
            {line.split()[-1] for line in maps if "openblas" in line.lower()}
        )
    for library in libraries:
        lib = ctypes.CDLL(library)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return -1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="parent of the scratch dir")
    parser.add_argument(
        "--started", type=float, default=None,
        help="time.monotonic() just before this process was started",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop at the timed call and report only setup_s",
    )
    parser.add_argument(
        "--fill", type=Path, default=None,
        help="make the paper_warm cold fill in this dir, then stop",
    )
    parser.add_argument(
        "--filled", type=Path, default=None,
        help="a dir made by --fill (paper_warm operations)",
    )
    args = parser.parse_args()
    started = time.monotonic() if args.started is None else args.started

    # The whole package surface the workloads reach, imported before the
    # tracer wraps it (set-up work either way).
    import repro.experiments.paper  # noqa: F401
    import repro.sweep.orchestrator  # noqa: F401
    from repro.telemetry import probes

    from layers import Tracer
    from speed import PROBE_NOMINAL_S, SpeedSampler, probe_median
    from workloads import WORKLOADS, fill_paper_cache

    if args.fill is not None:
        problems = fill_paper_cache(args.scale, args.fill)
        print(json.dumps({
            "fill_s": time.monotonic() - started, "problems": problems,
        }))
        return 0

    Path(args.tmp).mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.tmp))
    try:
        workload = WORKLOADS[args.workload](
            args.workload, args.seed, args.scale, tmp, args.filled
        )
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        with probes.capture() if tracer is not None else nullcontext() as collector:
            raw_setup_s = time.monotonic() - started
            setup_s = raw_setup_s * PROBE_NOMINAL_S / probe_median()
            if args.setup_only:
                print(json.dumps({
                    "setup_s": setup_s, "raw_setup_s": raw_setup_s,
                    "problems": [],
                }))
                return 0
            with SpeedSampler(timer=not args.trace) as sampler:
                output = workload.call()
            # Before the checks, whose own allocations must not count.
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        if tracer is not None:
            tracer.uninstall()
        outcome = workload.check(output)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "wall_s": sampler.wall_s * sampler.factor(),
            "cpu_s": sampler.cpu_s * sampler.factor(),
            "setup_s": setup_s,
            "raw_wall_s": sampler.wall_s,
            "raw_cpu_s": sampler.cpu_s,
            "raw_setup_s": raw_setup_s,
            "speed": sampler.factor(),
            "probes": [duration for _, duration in sampler.samples],
            "peak_rss_mb": peak_rss_mb,
            "rows": outcome.rows,
            "problems": outcome.problems,
            "blas_threads": blas_threads(),
        }
        if tracer is not None:
            record["layers"] = tracer.layer_metrics(collector.counters)
            record["self_total_s"] = tracer.self_total()
            record["paper"] = _paper_seconds(output)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(record))
    return 0


def _paper_seconds(output: object) -> dict:
    """``ExperimentArtefact.elapsed_seconds`` per registry entry, summed
    over the pipelines a paper call returned (empty for sweeps)."""
    seconds: dict = {}
    if isinstance(output, list):
        for pipeline in output:
            for artefact in pipeline.artefacts:
                seconds[artefact.name] = (
                    seconds.get(artefact.name, 0.0) + artefact.elapsed_seconds
                )
    return seconds


if __name__ == "__main__":
    sys.exit(main())
