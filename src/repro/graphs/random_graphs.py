"""Random graph generators.

All generators take an explicit :class:`random.Random` instance so trials are
reproducible; none of them touch the global RNG.

The paper's main experimental workload is the Erdős–Rényi model
``G(n, 1/2)`` (:func:`gnp_random_graph` with ``p=0.5``); the geometric model
is included because the paper's conclusion motivates the algorithm with
ad-hoc sensor networks, for which random geometric graphs are the standard
abstraction.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
from random import Random
from typing import List, Union

import numpy as np

from repro.graphs.graph import Graph, _from_csr, _from_edge_arrays


def _require_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")


def gnp_random_graph(n: int, p: float, rng: Random) -> Graph:
    """An Erdős–Rényi graph ``G(n, p)``: each edge present independently.

    Uses the geometric-skipping method of Batagelj and Brandes, so the
    running time is O(n + m) rather than O(n^2) for sparse graphs, while
    remaining exactly distributed as G(n, p).

    Each ``rng.random()`` call is one geometric skip along the lower
    triangle's linear index ``L = v(v - 1)/2 + w`` (``w < v``), the last
    call being the one that overshoots ``C(n, 2)``.  From
    :data:`_REPLAY_DRAWS` expected skips on, and only for a plain
    :class:`random.Random`, the skips are replayed in numpy on ``rng``'s
    own MT19937 stream (:func:`_replay_skip_loop`); the graph and the
    final ``rng`` state are exactly those of the one-call-per-skip loop
    that runs otherwise.  Either way the indices become the graph's CSR
    arrays in :func:`_lower_triangle_graph`.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    _require_probability(p)
    if p == 0.0 or n < 2:
        return Graph(n)
    if p == 1.0:
        return _from_edge_arrays(n, *np.triu_indices(n, 1))
    log_q = math.log(1.0 - p)
    if log_q == 0.0:
        # p is below float resolution (log1p(-p) rounds to 0): no edges.
        return Graph(n)
    pairs = n * (n - 1) // 2
    # A subclass may override random(), and SystemRandom has no state to
    # replay: both keep the loop.
    if type(rng) is Random and pairs * p >= _REPLAY_DRAWS:
        return _lower_triangle_graph(n, _replay_skip_loop(pairs, p, log_q, rng))
    found: List[int] = []
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


#: Expected skip count ``C(n, 2) * p`` from which :func:`gnp_random_graph`
#: replays its skips in numpy.  Measured on a 2-core x86 VM (Python 3.11,
#: numpy 2.4): a replay costs ≈0.5 ms per call however small (≈160 µs of
#: it seeding the throwaway ``RandomState``), and the first one imports
#: ``numpy.random`` (13 ms, +6 MB RSS).  The paper pipeline draws only
#: small graphs (80 × G(30, 0.3), at most G(200, 1/2) = 9,950 expected
#: skips): with the threshold at 2,000 the cold ``repro paper`` peak RSS
#: rose from 40.7 to 43.1 MB; at 20,000 it stays at 40.7 MB and
#: ``numpy.random`` is never imported.  G(1000, 1/2) (249,750 skips)
#: replays in 9–13 ms against the loop's 87–117 ms.
_REPLAY_DRAWS = 20_000

#: At most this many draws in one replay block, so the replay's transient
#: arrays (a few float64/int64 copies of a block) stay at a few MB for any
#: ``n``.  Smaller blocks also ran faster: G(3000, 1/2) replayed in 39 ms
#: with this cap against 58 ms in one block.
_REPLAY_BLOCK = 1 << 18

#: A skip ratio this close (relative) to an integer is recomputed with
#: ``math.log``: ``np.log`` may differ from it in the last ulp, which can
#: move ``int()`` only across an integer.
_NEAR_INTEGER = 1e-9


def _skips(draws: np.ndarray, log_q: float, pairs: int) -> np.ndarray:
    """The loop's skips ``1 + int(math.log(1.0 - u) / log_q)`` for every
    draw ``u``, as int64; a skip past ``pairs`` (which ends the loop
    whatever its size) is clipped to ``pairs + 1`` so the cast cannot
    overflow."""
    # In place where possible: each fresh array of a large block costs its
    # page faults.
    ratio = np.subtract(1.0, draws)
    np.log(ratio, out=ratio)
    ratio /= log_q
    off = np.rint(ratio)
    off -= ratio
    np.abs(off, out=off)
    tolerance = np.maximum(ratio, 1.0)
    tolerance *= _NEAR_INTEGER
    for i in np.flatnonzero(off <= tolerance).tolist():
        ratio[i] = math.log(1.0 - float(draws[i])) / log_q
    np.minimum(ratio, pairs, out=ratio)
    skips = ratio.astype(np.int64)
    skips += 1
    return skips


def _replay_skip_loop(
    pairs: int, p: float, log_q: float, rng: Random
) -> np.ndarray:
    """The ascending lower-triangle indices that :func:`gnp_random_graph`'s
    skip loop finds with ``rng``, drawn in numpy blocks.

    ``random.Random`` and numpy's legacy ``RandomState`` are both MT19937
    and build a double alike, ``((a >> 5) * 2^26 + (b >> 6)) / 2^53``, so a
    ``RandomState`` loaded with ``rng``'s state draws the loop's uniforms.
    With ``m`` skips still expected, a block draws ``m - s`` uniforms
    (at most :data:`_REPLAY_BLOCK`) while that leaves a margin ``s = 4√m
    + 16`` (over four standard deviations), and ``m + s`` once it does
    not, so the loop almost always stops in a short last block.  That
    block is drawn again from its start up to the overshooting draw, and
    the stream's state is written back to ``rng`` (``gauss_next``
    untouched): exactly where the loop would have left it.
    """
    from numpy.random import RandomState

    version, internal, gauss_next = rng.getstate()
    stream = RandomState()
    stream.set_state(
        ("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1])
    )
    blocks: List[np.ndarray] = []
    last = -1
    while True:
        mean = (pairs - 1 - last) * p
        spread = 4.0 * math.sqrt(mean) + 16.0
        if mean > 2.0 * spread:
            size = min(int(mean - spread), _REPLAY_BLOCK)
        else:
            size = int(mean + spread)
        start = stream.get_state()
        index = np.cumsum(_skips(stream.random_sample(size), log_q, pairs))
        index += last
        used = int(index.searchsorted(pairs))
        if used < size:
            blocks.append(index[:used])
            stream.set_state(start)
            stream.random_sample(used + 1)
            break
        blocks.append(index)
        last = int(index[-1])
    _, key, pos = stream.get_state()[:3]
    rng.setstate((version, tuple(key.tolist()) + (int(pos),), gauss_next))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


#: Up to this many edges :func:`_lower_triangle_graph` lays the rows out
#: in Python: below it numpy's fixed per-call cost outweighs the work
#: (≈10 µs against ≈30 µs at ``G(8, 1/2)``); above it the array path wins.
_SMALL_GRAPH_EDGES = 128


def _lower_triangle_graph(
    n: int, linear: Union[List[int], np.ndarray]
) -> Graph:
    """The graph on ``n`` vertices whose edges are the ascending, distinct
    lower-triangle indices ``linear`` (``L = v(v - 1)/2 + w``, ``w < v``),
    a list or an int64 array."""
    if len(linear) > _SMALL_GRAPH_EDGES:
        found = np.asarray(linear, dtype=np.int64)
        # Row v of L is the largest v with v(v - 1)/2 <= L, found exactly
        # by a search over the triangular numbers.
        triangular = np.arange(n, dtype=np.int64)
        triangular *= triangular - 1
        triangular //= 2
        v = triangular.searchsorted(found, side="right") - 1
        return _from_edge_arrays(n, found - triangular[v], v)
    # Ascending L fills every row in sorted order: row r receives its
    # lower neighbours (w < r) in its own block v = r, ascending, and its
    # upper neighbours in the later blocks, ascending.
    rows: List[List[int]] = [[] for _ in range(n)]
    v, start = 1, 0
    for index in linear:
        while index >= start + v:
            start += v
            v += 1
        w = index - start
        rows[v].append(w)
        rows[w].append(v)
    indptr = np.fromiter(
        accumulate(map(len, rows), initial=0), dtype=np.int32, count=n + 1
    )
    indices = np.fromiter(
        chain.from_iterable(rows), dtype=np.int32, count=int(indptr[-1])
    )
    return _from_csr(indptr, indices)


def random_geometric_graph(
    n: int,
    radius: float,
    rng: Random,
    return_positions: bool = False,
):
    """A random geometric graph on the unit square.

    ``n`` points are placed uniformly at random; two points are adjacent when
    their Euclidean distance is at most ``radius``.  This is the standard
    model for the ad-hoc wireless sensor networks that motivate beeping
    algorithms.

    When ``return_positions`` is true, returns ``(graph, positions)`` where
    ``positions[v]`` is the (x, y) pair of vertex ``v``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    positions = [(rng.random(), rng.random()) for _ in range(n)]
    radius_squared = radius * radius
    edges = []
    # Grid-bucket the points so the expected running time is O(n + m).
    cell = max(radius, 1e-9)
    buckets = {}
    for v, (x, y) in enumerate(positions):
        buckets.setdefault((int(x / cell), int(y / cell)), []).append(v)
    for (cx, cy), members in buckets.items():
        neighbor_cells = [
            (cx + dx, cy + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
        ]
        for u in members:
            ux, uy = positions[u]
            for key in neighbor_cells:
                for v in buckets.get(key, ()):
                    if v <= u:
                        continue
                    vx, vy = positions[v]
                    if (ux - vx) ** 2 + (uy - vy) ** 2 <= radius_squared:
                        edges.append((u, v))
    graph = Graph(n, edges)
    if return_positions:
        return graph, positions
    return graph


def watts_strogatz_graph(
    n: int, nearest: int, rewire_probability: float, rng: Random
) -> Graph:
    """A small-world (Watts–Strogatz) graph.

    A ring lattice where each vertex connects to its ``nearest`` clockwise
    neighbours (``nearest`` must be even and < n), then each edge is
    rewired to a uniform random endpoint with the given probability
    (skipping rewirings that would create loops or duplicates).
    """
    if nearest % 2 != 0 or nearest < 2:
        raise ValueError(f"nearest must be even and >= 2, got {nearest}")
    if n <= nearest:
        raise ValueError(f"n must exceed nearest, got n={n}")
    _require_probability(rewire_probability)
    edges = set()
    for v in range(n):
        for offset in range(1, nearest // 2 + 1):
            w = (v + offset) % n
            edges.add((min(v, w), max(v, w)))
    rewired = set()
    for u, v in sorted(edges):
        if rng.random() < rewire_probability:
            for _attempt in range(4 * n):
                w = rng.randrange(n)
                candidate = (min(u, w), max(u, w))
                if w != u and candidate not in edges and candidate not in rewired:
                    rewired.add(candidate)
                    break
            else:
                rewired.add((u, v))
        else:
            rewired.add((u, v))
    return Graph(n, sorted(rewired))
