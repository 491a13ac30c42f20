"""G(n, p) build: the numpy skip replay vs a frozen copy of the skip loop.

``gnp_random_graph`` draws Batagelj and Brandes' geometric skips.  Up to
:data:`~repro.graphs.random_graphs._REPLAY_DRAWS` expected skips it makes
one ``rng.random()`` call per skip; from there on it replays the same
skips in numpy blocks on the rng's own MT19937 stream.  The paper's
headline graph, G(1000, 1/2), has 249,750 expected skips, so it takes the
replay.

:func:`_loop_gnp` below is the one-call-per-skip generator as it was
before the replay, frozen here on purpose: timing against the module's
own loop would let a regression in shared code slow both sides and pass.
Both sides lay out the graph with the same ``_lower_triangle_graph``.

``test_gnp_build_floor`` (default run, CI) asserts that both sides build
the same edges and leave the rng in the same state, and that the replay
builds G(1000, 1/2) at least **3x** faster.  A silent fall-back to the
loop (a threshold or type check gone wrong) fails the floor.  The
measured numbers land in ``BENCH_gnp_build.json``.

Run with ``pytest benchmarks/bench_gnp_build.py``.
"""

from __future__ import annotations

import math
import time
from random import Random

from benchmarks.conftest import report, write_bench_result
from repro.experiments.tables import format_table
from repro.graphs.random_graphs import _lower_triangle_graph, gnp_random_graph

N = 1000
EDGE_PROBABILITY = 0.5
SEED = 2005
REPEATS = 5
FLOOR = 3.0


def _loop_gnp(n, p, rng):
    """The skip loop of ``gnp_random_graph`` before the replay, for
    ``0 < p < 1`` and ``n >= 2``."""
    log_q = math.log(1.0 - p)
    pairs = n * (n - 1) // 2
    found = []
    append = found.append
    draw = rng.random
    log = math.log
    index = -1
    while True:
        index += 1 + int(log(1.0 - draw()) / log_q)
        if index >= pairs:
            break
        append(index)
    return _lower_triangle_graph(n, found)


def _best_seconds(build):
    """Best of :data:`REPEATS` builds, each from a fresh ``Random(SEED)``."""
    best = math.inf
    for _ in range(REPEATS):
        rng = Random(SEED)
        start = time.perf_counter()
        build(N, EDGE_PROBABILITY, rng)
        best = min(best, time.perf_counter() - start)
    return best


def _measure():
    loop_seconds = _best_seconds(_loop_gnp)
    replay_seconds = _best_seconds(gnp_random_graph)
    return {
        "loop_seconds": loop_seconds,
        "replay_seconds": replay_seconds,
        "speedup": loop_seconds / max(replay_seconds, 1e-9),
    }


def test_gnp_build_floor():
    ours, theirs = Random(SEED), Random(SEED)
    replayed = gnp_random_graph(N, EDGE_PROBABILITY, ours)
    looped = _loop_gnp(N, EDGE_PROBABILITY, theirs)
    assert list(replayed.edges()) == list(looped.edges())
    assert ours.getstate() == theirs.getstate()

    measurement = _measure()
    if measurement["speedup"] < FLOOR:
        # One re-measure absorbs scheduler noise on shared CI boxes; a
        # real regression fails both samples.
        retry = _measure()
        if retry["speedup"] > measurement["speedup"]:
            measurement = retry
    report(
        f"G({N}, {EDGE_PROBABILITY}) BUILD: numpy skip replay vs the "
        f"frozen skip loop (best of {REPEATS})",
        format_table(
            ["path", "ms"],
            [
                ["loop: one rng.random() per skip",
                 f"{measurement['loop_seconds'] * 1000:.1f}"],
                ["replay: numpy blocks on the same MT19937 stream",
                 f"{measurement['replay_seconds'] * 1000:.1f}"],
                ["speedup", f"{measurement['speedup']:.1f}x"],
            ],
        ),
    )
    write_bench_result(
        "gnp_build",
        params={"n": N, "edge_probability": EDGE_PROBABILITY, "seed": SEED,
                "repeats": REPEATS},
        results=measurement,
        floor=FLOOR,
    )
    assert measurement["speedup"] >= FLOOR, (
        f"G({N}, {EDGE_PROBABILITY}) builds only "
        f"{measurement['speedup']:.2f}x faster than the frozen skip loop "
        f"(floor {FLOOR}x)"
    )
