"""Hypothesis properties of the application layer, on both engines.

Every reduction's defining invariants — proper/complete colouring within
the Δ+1 bound, domination plus independence, matching maximality, the
(α, β)-ruling conditions — must hold over random graphs and seeds
regardless of which engine computed the output: the per-node reference
reductions or the vectorised fleet kernels.  The verifiers themselves
come from the application modules, so a property failure localises to
the engine, not the check.
"""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.applications.coloring import mis_coloring, verify_coloring
from repro.applications.dominating import (
    mis_dominating_set,
    verify_dominating_set,
)
from repro.applications.matching import mis_matching, verify_maximal_matching
from repro.applications.ruling_sets import ruling_set, verify_ruling_set
from repro.beeping.rng import derive_seed_block, spawn_rng
from repro.engine.applications import (
    ApplicationFleetSimulator,
    ColoringRule,
    DominatingSetRule,
    MatchingRule,
    RulingSetRule,
)
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.validation import verify_mis

ENGINES = ("reference", "fleet")

graph_params = {
    "n": st.integers(min_value=1, max_value=26),
    "p": st.floats(min_value=0.0, max_value=0.5),
    "graph_seed": st.integers(min_value=0, max_value=100),
    "run_seed": st.integers(min_value=0, max_value=100),
    "engine": st.sampled_from(ENGINES),
}


def _fleet_run(graph, rule, run_seed):
    seeds = derive_seed_block(run_seed, 0, count=1)
    return ApplicationFleetSimulator(graph, rule).run_fleet(seeds)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**graph_params)
def test_coloring_is_proper_complete_and_bounded(
    n, p, graph_seed, run_seed, engine
):
    graph = gnp_random_graph(n, p, Random(graph_seed))
    if engine == "reference":
        result = mis_coloring(graph, spawn_rng(run_seed, 0))
        colors, num_colors = result.colors, result.num_colors
    else:
        run = _fleet_run(graph, ColoringRule(), run_seed)
        colors, num_colors = run.colors_list(0), run.num_colors(0)
    assert verify_coloring(graph, colors) == num_colors
    assert num_colors <= graph.max_degree() + 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**graph_params)
def test_dominating_set_is_independent_and_dominating(
    n, p, graph_seed, run_seed, engine
):
    graph = gnp_random_graph(n, p, Random(graph_seed))
    if engine == "reference":
        chosen = mis_dominating_set(graph, spawn_rng(run_seed, 0))
    else:
        chosen = _fleet_run(graph, DominatingSetRule(), run_seed).chosen_set(0)
    verify_mis(graph, chosen)
    verify_dominating_set(graph, chosen)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**graph_params)
def test_matching_is_maximal(n, p, graph_seed, run_seed, engine):
    graph = gnp_random_graph(n, p, Random(graph_seed))
    if engine == "reference":
        matching = mis_matching(graph, spawn_rng(run_seed, 0)).matching
    else:
        rule = MatchingRule()
        run = _fleet_run(graph, rule, run_seed)
        matching = rule.matching_edges(graph, run, 0)
    verify_maximal_matching(graph, matching)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**graph_params)
def test_ruling_set_satisfies_alpha_beta(n, p, graph_seed, run_seed, engine):
    graph = gnp_random_graph(n, p, Random(graph_seed))
    if engine == "reference":
        chosen = ruling_set(graph, 3, spawn_rng(run_seed, 0))
    else:
        chosen = _fleet_run(graph, RulingSetRule(), run_seed).chosen_set(0)
    verify_ruling_set(graph, chosen, 3, 2)
