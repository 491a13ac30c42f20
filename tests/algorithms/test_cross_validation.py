"""Cross-algorithm validation: every algorithm, many graph families, plus
property-based checks and MIS-size sanity comparisons."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import available_algorithms, make_algorithm
from repro.graphs.cliques import theorem1_family
from repro.algorithms.exact import maximum_independent_set
from repro.graphs.random_graphs import (
    gnp_random_graph,
    random_geometric_graph,
    watts_strogatz_graph,
)
from repro.graphs.structured import (
    cycle_graph,
    grid_graph,
    hex_lattice_graph,
    path_graph,
    star_graph,
)

ALL_ALGORITHMS = available_algorithms()

FAMILIES = {
    "gnp-dense": lambda: gnp_random_graph(28, 0.6, Random(1)),
    "gnp-sparse": lambda: gnp_random_graph(40, 0.08, Random(2)),
    "tree": lambda: path_graph(30),
    "geometric": lambda: random_geometric_graph(35, 0.25, Random(4)),
    "grid": lambda: grid_graph(6, 6),
    "hex": lambda: hex_lattice_graph(5, 6),
    "small-world": lambda: watts_strogatz_graph(32, 4, 0.2, Random(3)),
    "star": lambda: star_graph(12),
    "cycle": lambda: cycle_graph(17),
    "cliques": lambda: theorem1_family(4, copies=2),
}


@pytest.mark.parametrize("algorithm_name", ALL_ALGORITHMS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_algorithm_on_every_family(algorithm_name, family):
    graph = FAMILIES[family]()
    run = make_algorithm(algorithm_name).run(graph, Random(42))
    run.verify()


@pytest.mark.parametrize("algorithm_name", ALL_ALGORITHMS)
def test_mis_size_within_bounds(algorithm_name):
    """Any MIS of a graph with max degree D has size >= n/(D+1) and is no
    larger than the independence number."""
    graph = gnp_random_graph(20, 0.3, Random(5))
    run = make_algorithm(algorithm_name).run(graph, Random(6))
    lower = graph.num_vertices / (graph.max_degree() + 1)
    assert run.mis_size >= lower
    assert run.mis_size <= len(maximum_independent_set(graph))


@pytest.mark.parametrize("algorithm_name", ALL_ALGORITHMS)
def test_disjoint_cliques_pick_one_per_clique(algorithm_name):
    graph = theorem1_family(3)  # cliques of size 1..3, 3 copies each
    run = make_algorithm(algorithm_name).run(graph, Random(7))
    run.verify()
    assert run.mis_size == 9  # exactly one vertex per clique


@given(
    algorithm_name=st.sampled_from(ALL_ALGORITHMS),
    n=st.integers(min_value=1, max_value=16),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_property_all_algorithms_all_graphs(algorithm_name, n, p, seed):
    graph = gnp_random_graph(n, p, Random(seed))
    run = make_algorithm(algorithm_name).run(
        graph, Random(seed ^ 0xA1607), max_rounds=50_000
    )
    run.verify()


def test_beeping_algorithms_distributions_similar_sizes():
    """The algorithms compute different MISes, but their sizes on G(n, 1/2)
    concentrate: all means must lie within a factor-2 band of each other."""
    graph = gnp_random_graph(60, 0.5, Random(8))
    means = {}
    for name in ("feedback", "afek-sweep", "luby-permutation", "greedy"):
        sizes = [
            make_algorithm(name).run(graph, Random(t)).mis_size
            for t in range(10)
        ]
        means[name] = sum(sizes) / len(sizes)
    low, high = min(means.values()), max(means.values())
    assert high <= 2 * low
