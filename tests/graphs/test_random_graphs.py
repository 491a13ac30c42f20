"""Unit tests for the random graph generators."""

import math
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import numpy as np
import pytest

from repro.graphs import random_graphs
from repro.graphs.random_graphs import gnp_random_graph, random_geometric_graph


class TestGnp:
    def test_zero_probability(self):
        g = gnp_random_graph(20, 0.0, Random(1))
        assert g.num_edges == 0

    def test_unit_probability_is_complete(self):
        g = gnp_random_graph(10, 1.0, Random(1))
        assert g.num_edges == 45

    def test_determinism(self):
        a = gnp_random_graph(30, 0.4, Random(7))
        b = gnp_random_graph(30, 0.4, Random(7))
        assert a == b

    def test_different_seeds_differ(self):
        a = gnp_random_graph(30, 0.5, Random(1))
        b = gnp_random_graph(30, 0.5, Random(2))
        assert a != b

    def test_edge_count_near_expectation(self):
        n, p = 200, 0.5
        g = gnp_random_graph(n, p, Random(3))
        expected = p * n * (n - 1) / 2
        # 5 sigma tolerance: sigma^2 = C(n,2) p (1-p).
        sigma = math.sqrt(n * (n - 1) / 2 * p * (1 - p))
        assert abs(g.num_edges - expected) < 5 * sigma
        assert g.num_edges / math.comb(n, 2) == pytest.approx(p, abs=0.02)

    def test_triangles_near_expectation(self):
        # Clustering in G(n, p) is p: C(n, 3) p^3 expected triangles.
        n, p = 200, 0.5
        a = gnp_random_graph(n, p, Random(2)).adjacency_matrix()
        a = a.astype(np.int64)
        expected = math.comb(n, 3) * p ** 3
        assert np.trace(a @ a @ a) // 6 == pytest.approx(expected, rel=0.05)

    def test_dense_half_has_diameter_two(self):
        g = gnp_random_graph(150, 0.5, Random(3))
        a = g.adjacency_matrix()
        # Not complete, yet every pair is adjacent or shares a neighbour.
        assert g.num_edges < math.comb(150, 2)
        assert (a | (a @ a) | np.eye(150, dtype=bool)).all()

    def test_sparse_mean_degree(self):
        n = 400
        g = gnp_random_graph(n, 8 / (n - 1), Random(6))
        assert 2 * g.num_edges / n == pytest.approx(8.0, rel=0.1)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            gnp_random_graph(5, 1.5, Random(1))
        with pytest.raises(ValueError):
            gnp_random_graph(5, -0.1, Random(1))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            gnp_random_graph(-1, 0.5, Random(1))

    def test_small_graphs(self):
        assert gnp_random_graph(0, 0.5, Random(1)).num_vertices == 0
        assert gnp_random_graph(1, 0.5, Random(1)).num_edges == 0

    def test_sparse_case_exercises_skipping(self):
        g = gnp_random_graph(500, 0.01, Random(5))
        expected = 0.01 * 500 * 499 / 2
        assert 0.5 * expected < g.num_edges < 2.0 * expected


def _legacy_gnp_edges(n, p, rng):
    """The per-edge geometric-skip loop ``gnp_random_graph`` ran before it
    drew into arrays, kept verbatim as the oracle: its ``(w, v)`` edges."""
    if p == 0.0 or n < 2:
        return []
    if p == 1.0:
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    log_q = math.log(1.0 - p)
    if log_q == 0.0:
        return []
    v = 1
    w = -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return edges


class TestGnpIdentity:
    """The array-drawing generator builds exactly the legacy loop's graph
    and leaves the rng exactly where the loop left it."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 37, 1000])
    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.5, 0.999, 1.0])
    def test_matches_legacy_loop(self, n, p):
        seed = n * 7919 + int(p * 1000)
        ours, theirs = Random(seed), Random(seed)
        graph = gnp_random_graph(n, p, ours)
        edges = _legacy_gnp_edges(n, p, theirs)
        assert list(graph.edges()) == sorted(edges)
        assert graph.num_edges == len(edges)
        assert ours.getstate() == theirs.getstate()

    def test_matches_legacy_loop_on_random_cases(self):
        meta = Random(2024)
        for _ in range(300):
            n = meta.randrange(0, 120)
            p = meta.choice([meta.random(), 1e-300, 1e-6, 1.0 - 1e-12])
            seed = meta.randrange(2 ** 32)
            ours, theirs = Random(seed), Random(seed)
            graph = gnp_random_graph(n, p, ours)
            assert list(graph.edges()) == sorted(_legacy_gnp_edges(n, p, theirs))
            assert ours.getstate() == theirs.getstate()


def _primed_pair(seed, advance):
    """Two equal ``Random`` s, advanced ``advance`` draws, with a pending
    ``gauss_next``."""
    pair = Random(seed), Random(seed)
    for rng in pair:
        for _ in range(advance):
            rng.random()
        rng.gauss(0.0, 1.0)
    assert pair[0].getstate()[2] is not None
    return pair


class TestGnpReplay:
    """The numpy replay of the skip loop on the rng's own MT19937 stream
    builds exactly the loop's graph and leaves the rng exactly where the
    loop left it."""

    @pytest.fixture
    def replay_always(self, monkeypatch):
        monkeypatch.setattr(random_graphs, "_REPLAY_DRAWS", 0)

    @pytest.fixture
    def replays(self, monkeypatch):
        calls = []
        replay = random_graphs._replay_skip_loop

        def counted(*args):
            calls.append(args)
            return replay(*args)

        monkeypatch.setattr(random_graphs, "_replay_skip_loop", counted)
        return calls

    def test_matches_legacy_loop_on_random_cases(self, replay_always, replays):
        meta = Random(2024)
        for _ in range(300):
            n = meta.randrange(0, 120)
            p = meta.choice([meta.random(), 1e-300, 1e-6, 1.0 - 1e-12])
            ours, theirs = _primed_pair(meta.randrange(2 ** 32), meta.randrange(4))
            graph = gnp_random_graph(n, p, ours)
            assert list(graph.edges()) == sorted(_legacy_gnp_edges(n, p, theirs))
            assert ours.getstate() == theirs.getstate()
        assert len(replays) > 200

    @pytest.mark.parametrize("p, replayed", [(0.99, False), (0.996, True)])
    def test_either_side_of_the_threshold(self, replays, p, replayed):
        n = 201
        assert (n * (n - 1) // 2 * p >= random_graphs._REPLAY_DRAWS) is replayed
        ours, theirs = _primed_pair(n, 3)
        graph = gnp_random_graph(n, p, ours)
        assert list(graph.edges()) == sorted(_legacy_gnp_edges(n, p, theirs))
        assert ours.getstate() == theirs.getstate()
        assert len(replays) == int(replayed)

    @pytest.mark.parametrize(
        "sizing_p, block", [(1e-4, None), (0.05, None), (0.3, None),
                            (0.99, None), (0.3, 100)]
    )
    def test_block_sizes_never_change_the_result(
        self, monkeypatch, sizing_p, block
    ):
        # p only sizes the blocks: far too small means many blocks, far
        # too large a first block the loop stops in; a small cap means
        # many full-size blocks.
        if block is not None:
            monkeypatch.setattr(random_graphs, "_REPLAY_BLOCK", block)
        n, p = 300, 0.3
        ours, theirs = _primed_pair(17, 1)
        found = random_graphs._replay_skip_loop(
            n * (n - 1) // 2, sizing_p, math.log(1.0 - p), ours
        )
        edges = _legacy_gnp_edges(n, p, theirs)
        assert found.tolist() == [v * (v - 1) // 2 + w for w, v in edges]
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("nudge", [0.0, 1.0, -math.inf])
    def test_near_integer_skips_follow_math_log(self, monkeypatch, nudge):
        # u = 1 - 2^-k makes the ratio k at p = 1/2, where one ulp of log
        # moves int() to k - 1.  Nudged by an ulp either way, np.log must
        # still give the loop's skips.
        log, log_q = np.log, math.log(0.5)

        def nudged(x, out=None):
            result = log(x, out=out)
            if nudge:
                result[...] = np.nextafter(result, nudge)
            return result

        monkeypatch.setattr(np, "log", nudged)
        draws = np.array([1.0 - 2.0 ** -k for k in range(1, 53)])
        skips = random_graphs._skips(draws, log_q, 10 ** 6)
        assert skips.tolist() == [
            1 + int(math.log(1.0 - u) / log_q) for u in draws.tolist()
        ]

    def test_huge_skips_are_clipped_before_the_cast(self):
        log_q = math.log(1.0 - 1e-15)
        skips = random_graphs._skips(np.array([0.0, 0.5, 1.0 - 2.0 ** -53]), log_q, 10)
        assert skips.tolist() == [1, 11, 11]

    def test_overridden_random_keeps_the_loop(self, replay_always, replays):
        class Squared(Random):
            def random(self):
                return super().random() ** 2

        ours, theirs = Squared(5), Squared(5)
        graph = gnp_random_graph(60, 0.3, ours)
        assert list(graph.edges()) == sorted(_legacy_gnp_edges(60, 0.3, theirs))
        assert ours.getstate() == theirs.getstate()
        assert not replays

    def test_loop_sized_graphs_leave_numpy_random_unimported(self):
        # Below the threshold (G(200, 1/2) is the paper's largest graph)
        # a build must not pay numpy.random's import.
        src = str(Path(random_graphs.__file__).parents[2])
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys; from random import Random;"
            "from repro.graphs.random_graphs import gnp_random_graph;"
            "gnp_random_graph(200, 0.5, Random(1));"
            "print('numpy.random' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env=env,
        ).stdout
        assert out.strip() == "False"


class TestGeometric:
    def test_radius_zero_gives_no_edges(self):
        g = random_geometric_graph(30, 0.0, Random(4))
        assert g.num_edges == 0

    def test_radius_sqrt2_gives_complete(self):
        g = random_geometric_graph(15, 1.5, Random(4))
        assert g.num_edges == 15 * 14 // 2

    def test_edges_match_distances(self):
        g, positions = random_geometric_graph(
            40, 0.3, Random(5), return_positions=True
        )
        for u in g.vertices():
            ux, uy = positions[u]
            for v in range(u + 1, g.num_vertices):
                vx, vy = positions[v]
                distance = math.hypot(ux - vx, uy - vy)
                assert g.has_edge(u, v) == (distance <= 0.3)

    def test_determinism(self):
        a = random_geometric_graph(25, 0.25, Random(6))
        b = random_geometric_graph(25, 0.25, Random(6))
        assert a == b

    def test_mean_degree_matches_unit_square_overlap(self):
        # Two uniform points of the unit square lie within r of each other
        # with probability pi r^2 - 8 r^3 / 3 + r^4 / 2 (r <= 1).
        n, r = 400, math.sqrt(8 / (math.pi * 400))
        g = random_geometric_graph(n, r, Random(6))
        expected = (n - 1) * (math.pi * r**2 - 8 * r**3 / 3 + r**4 / 2)
        assert 2 * g.num_edges / n == pytest.approx(expected, rel=0.1)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            random_geometric_graph(5, -0.1, Random(1))
