"""Property-based tests for the vectorised engine."""

from random import Random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import FeedbackNode
from repro.engine.fleet import FleetSimulator
from repro.engine.rules import FeedbackRule, SweepRule
from repro.graphs.random_graphs import gnp_random_graph


@given(
    observations=st.lists(st.booleans(), min_size=1, max_size=40),
    down=st.floats(min_value=0.1, max_value=0.9),
    up=st.floats(min_value=1.1, max_value=4.0),
)
def test_vector_rule_matches_scalar_policy(observations, down, up):
    """One vectorised vertex must follow the scalar FeedbackNode exactly."""
    rule = FeedbackRule(decrease_factor=down, increase_factor=up)
    node = FeedbackNode(decrease_factor=down, increase_factor=up)
    p = rule.initial(1)
    for t, heard in enumerate(observations):
        p = rule.update(
            p, np.array([heard]), np.array([True]), t
        )
        node.observe_first_exchange(False, heard)
        assert p[0] == node.beep_probability()


@given(
    observations=st.lists(st.booleans(), min_size=1, max_size=60),
)
def test_feedback_rule_probability_bounds(observations):
    """Probabilities stay in (0, 1/2] forever."""
    rule = FeedbackRule()
    p = rule.initial(3)
    for t, heard in enumerate(observations):
        heard_vector = np.array([heard, not heard, heard])
        p = rule.update(p, heard_vector, np.ones(3, bool), t)
        assert (p > 0.0).all()
        assert (p <= 0.5).all()


@given(
    n=st.integers(min_value=1, max_value=25),
    p=st.floats(min_value=0.0, max_value=1.0),
    graph_seed=st.integers(min_value=0, max_value=2**32 - 1),
    run_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_vectorized_always_mis(n, p, graph_seed, run_seed):
    graph = gnp_random_graph(n, p, Random(graph_seed))
    simulator = FleetSimulator(graph, max_rounds=50_000)
    simulator.run_fleet(FeedbackRule(), [run_seed], validate=True)


@given(
    n=st.integers(min_value=1, max_value=20),
    graph_seed=st.integers(min_value=0, max_value=2**32 - 1),
    run_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_vectorized_sweep_always_mis(n, graph_seed, run_seed):
    graph = gnp_random_graph(n, 0.4, Random(graph_seed))
    simulator = FleetSimulator(graph, max_rounds=50_000)
    simulator.run_fleet(SweepRule(), [run_seed], validate=True)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_beep_counts_consistent_with_rounds(seed):
    """No vertex can beep more times than there were rounds."""
    graph = gnp_random_graph(15, 0.4, Random(seed))
    run = FleetSimulator(graph).run_fleet(FeedbackRule(), [seed]).trial_run(0)
    assert (run.beeps_by_node <= run.rounds).all()
