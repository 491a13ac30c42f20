"""End-to-end benchmark of the repro package: one workload per call.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_gnp_cold --seed 1900 \
        --seconds 30 --trace 0

Each operation runs ``worker.py`` in a fresh process against a fresh
scratch store under ``perfbench/out/tmp``, with ``jobs=1``.  Operations
repeat, one at a time, while the next one is expected to end nearer to
``--seconds`` than stopping would (at least :data:`MIN_OPS` of them).
Untraced runs also start :data:`SETUP_SAMPLES` set-up-only processes
after each operation, whose ``setup_s`` joins the operations'.
``paper_warm`` first makes one cold fill in its own process; every
operation of the run copies that cache.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's operations.  Times are in reference seconds (``speed.py``): each
operation's wall, CPU and set-up time scaled by the host's speed, which
the worker samples during the call.  ``--trace 1`` alternates untraced
and traced operations and reports the medians of the traced ones'
per-layer metrics (raw seconds), a per-layer share table and the
tracing overhead.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{"name": {"value": ..., "unit": ...}}``).
The lines before it are a machine record, a table of each metric's
reported value, median, quartiles and sample count and, when traced,
the share table; the same record goes to ``perfbench/out/results/``.
Exit status 2 means the package source is missing (``src/repro`` next
to this directory).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from workloads import PAPER_EXPERIMENTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Operations per run even when ``--seconds`` has passed (a traced run
#: makes untraced/traced pairs, so at least two of each): the median of
#: fewer would be a single reading.
MIN_OPS = 3

#: A run must end within this many seconds; operations still to start
#: are skipped (and a running one killed) past it.
RUN_LIMIT_S = 170.0

#: Extra set-up-only worker processes after each untraced operation,
#: whose ``setup_s`` joins the operations'.  Set-up is a few tenths of a
#: second of interpreter start and imports, so the 3-7 operations of a
#: run alone give a noisy reading (see the README's set-up A/B).
SETUP_SAMPLES = 2

#: BLAS threads pinned in the worker processes' environment (not in the
#: program).  One thread per worker keeps the dense GEMM from competing
#: with the interpreter thread for the two cores the benchmark was sized
#: on; ``cpu_s`` then equals ``wall_s`` up to waiting time.
BLAS_THREADS = "1"

#: Metric name -> unit, from the benchmark's definition file.
_DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _DEFINITION["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _DEFINITION["per_layer"]}

#: Self-time metrics that partition the traced wall time, for the share
#: table (``paper.*_s`` are whole-experiment spans and overlap them).
SELF_TIMES = (
    "graphs.build_s", "engine.operand_s", "engine.run_s", "rng.draw_s",
    "verify.s", "store.put_s", "store.get_s", "sweep.self_s",
    "runner.self_s", "aggregate.s", "exact.s", "bio.integrate_s", "render.s",
    "rundb.append_s",
)


def worker_env() -> Dict[str, str]:
    """The worker processes' environment: the package source first on
    the path, BLAS threads pinned, string hashing fixed.

    Bytecode is cached under ``out/pycache`` whatever the caller's
    ``PYTHONDONTWRITEBYTECODE``, so workers import compiled modules as
    an installed package would, instead of compiling the package from
    source inside ``setup_s`` (or inside the timed call, for modules the
    program imports lazily) only where bytecode writing is off.
    """
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["OMP_NUM_THREADS"] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def machine_record() -> Dict[str, Any]:
    """What the numbers were measured on (the worker adds BLAS threads)."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "platform": platform.platform(),
    }


def run_op(
    workload: str, seed: int, scale: str, trace: int, deadline: float,
    *extra: str,
) -> Dict[str, Any]:
    """One operation in a fresh worker process; its JSON record.

    ``extra`` are further worker arguments (``--setup-only``,
    ``--filled DIR``, ``--fill DIR``).
    """
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--trace", str(trace), "--tmp", str(OUT / "tmp"), *extra,
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--started", repr(started)],
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        return {"problems": ["operation timed out"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"problems": [f"worker exit {proc.returncode}: {tail}"]}
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(
    ops: List[Dict[str, Any]], setups: List[Dict[str, Any]]
) -> Dict[str, List[float]]:
    """Per-op end-to-end samples (``setup_s`` also per set-up-only run)."""
    return {
        "wall_s": [op["wall_s"] for op in ops],
        "trials_per_s": [op["rows"] / op["wall_s"] for op in ops],
        "cpu_s": [op["cpu_s"] for op in ops],
        "peak_rss_mb": [op["peak_rss_mb"] for op in ops],
        "setup_s": [op["setup_s"] for op in ops + setups],
    }


def per_layer(
    traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]]
) -> Dict[str, List[float]]:
    """Per-op per-layer samples of the traced operations."""
    samples: Dict[str, List[float]] = {
        name: [op["layers"][name] for op in traced]
        for name in LAYER_UNITS
        if name in traced[0]["layers"]
    }
    for name in PAPER_EXPERIMENTS:
        samples[f"paper.{name}_s"] = [
            op["paper"].get(name, 0.0) for op in traced
        ]
    untraced_wall = statistics.median(op["wall_s"] for op in untraced)
    samples["trace.overhead_frac"] = [
        statistics.median(op["wall_s"] for op in traced) / untraced_wall - 1.0
    ]
    return samples


def table(samples: Dict[str, List[float]], units: Dict[str, str]) -> List[str]:
    """Each metric's median (the reported value), quartiles and count."""
    lines = [f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  unit"]
    for name, samples_of in samples.items():
        q1, median, q3 = quartiles(samples_of)
        lines.append(
            f"{name:<28}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
            f"{len(samples_of):>4}  {units[name]}"
        )
    return lines


def host_speed(ops: List[Dict[str, Any]]) -> List[str]:
    """The raw wall times behind ``wall_s`` and the speed factors that
    scaled them (reference seconds per wall second)."""
    raw = quartiles([op["raw_wall_s"] for op in ops])
    speed = quartiles([op["speed"] for op in ops])
    return [
        f"raw wall_s median {raw[1]:.4g} s (q1 {raw[0]:.4g}, q3 {raw[2]:.4g}); "
        f"speed factor median {speed[1]:.4g} (q1 {speed[0]:.4g}, q3 {speed[2]:.4g})"
    ]


def share_table(traced: List[Dict[str, Any]]) -> Tuple[List[str], List[str]]:
    """Median self time per layer as a share of the traced wall time
    (raw seconds, like the spans), plus the problems of any op whose
    self times exceed its wall."""
    wall = statistics.median(op["raw_wall_s"] for op in traced)
    lines = [f"{'layer (self time)':<28}{'median s':>12}{'share':>9}"]
    for name in SELF_TIMES:
        seconds = statistics.median(op["layers"][name] for op in traced)
        lines.append(f"{name:<28}{seconds:>12.4f}{seconds / wall:>9.1%}")
    outside = statistics.median(
        op["raw_wall_s"] - op["self_total_s"] for op in traced
    )
    lines.append(f"{'(outside wrapped calls)':<28}{outside:>12.4f}{outside / wall:>9.1%}")
    lines.append(f"{'traced wall_s':<28}{wall:>12.4f}{1:>9.1%}")
    problems = [
        f"layer self times {op['self_total_s']:.4f}s exceed wall {op['raw_wall_s']:.4f}s"
        for op in traced
        if op["self_total_s"] > op["raw_wall_s"]
    ]
    return lines, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: the same paths at toy sizes (smoke test)",
    )
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'repro'} not found", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    ops: List[Dict[str, Any]] = []
    setups: List[Dict[str, Any]] = []
    fill: Dict[str, Any] = {"problems": []}
    rounds: List[float] = []
    kinds = (0, 1) if args.trace else (0,)
    extra_setups = 0 if args.trace else SETUP_SAMPLES
    filled: Tuple[str, ...] = ()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    fill_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-fill-", dir=OUT / "tmp"))
    try:
        if args.workload == "paper_warm":
            fill = run_op(
                args.workload, args.seed, args.scale, 0, deadline,
                "--fill", str(fill_dir),
            )
            filled = ("--filled", str(fill_dir))
            if fill["problems"]:
                # A failed fill fails the run's one attempted operation.
                ops.append(dict(fill, trace=0))
        while time.monotonic() < deadline and not fill["problems"]:
            elapsed = time.monotonic() - start
            # Start another round only if it is expected to end nearer to
            # ``--seconds`` than stopping now would, so runs average their
            # nominal length instead of overshooting by up to a round.
            if len(ops) >= MIN_OPS and (
                elapsed + statistics.median(rounds) / 2 > args.seconds
            ):
                break
            for trace in kinds:
                op = run_op(
                    args.workload, args.seed, args.scale, trace, deadline,
                    *filled,
                )
                op["trace"] = trace
                ops.append(op)
            for _ in range(extra_setups):
                setups.append(run_op(
                    args.workload, args.seed, args.scale, 0, deadline,
                    "--setup-only", *filled,
                ))
            rounds.append(time.monotonic() - start - elapsed)
    finally:
        shutil.rmtree(fill_dir, ignore_errors=True)

    good = [op for op in ops if not op["problems"]]
    untraced = [op for op in good if op["trace"] == 0]
    traced = [op for op in good if op["trace"] == 1]
    problems = list(dict.fromkeys(
        p for op in [fill] + ops + setups for p in op["problems"]
    ))
    report: List[str] = []
    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace == 0 and untraced:
        samples = end_to_end(untraced, [s for s in setups if not s["problems"]])
        units = END_TO_END_UNITS
        values = {name: statistics.median(v) for name, v in samples.items()}
        report += table(samples, units) + host_speed(untraced)
    elif args.trace == 1 and traced and untraced:
        samples = per_layer(traced, untraced)
        units = LAYER_UNITS
        values = {name: statistics.median(v) for name, v in samples.items()}
        report += table(samples, units)
        shares, share_problems = share_table(traced)
        report += [""] + shares
        problems += share_problems
    else:
        units = END_TO_END_UNITS if args.trace == 0 else LAYER_UNITS
        values = {name: 0.0 for name in units}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}

    machine = machine_record()
    machine["blas_threads"] = sorted({op["blas_threads"] for op in good})
    result = {
        "correct": not problems and len(good) == len(ops),
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "machine": machine,
        "problems": problems,
        "ops": ops,
        "setups": setups,
        "fill": fill,
        "result": result,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )

    print(f"# machine: {json.dumps(machine)}")
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} "
        f"scale={args.scale} ops={len(ops)} failed={result['failed']}"
        + (f" fill_s={fill['fill_s']:.3f}" if "fill_s" in fill else "")
    )
    for problem in problems:
        print(f"# problem: {problem}")
    for line in report:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
