"""One MIS contract, four entry points.

``verify_mis`` is the only scalar check: ``SimulationResult.verify`` and
``MISRun.verify`` are one call to it, and ``verify_mis_rows`` is its
batched twin.  On any (set, crashed, absent, recovered) input the four
must accept together, reject together and raise the same message.
"""

from dataclasses import replace
from random import Random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import MISRun
from repro.beeping.scheduler import BeepingSimulation
from repro.core.policy import ExponentFeedbackNode
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.validation import (
    MISValidationError,
    verify_mis,
    verify_mis_rows,
)


@st.composite
def contract_inputs(draw):
    """A small graph, a simulated result on it and random masks."""
    n = draw(st.integers(0, 9))
    p = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    graph = gnp_random_graph(n, p, Random(draw(st.integers(0, 2**16))))
    result = BeepingSimulation(
        graph, lambda vertex: ExponentFeedbackNode(), Random(n)
    ).run()
    rng = Random(draw(st.integers(0, 2**16)))

    def mask(density):
        return np.array([rng.random() < density for _ in range(n)], bool)

    members = result.mis if draw(st.booleans()) else None
    membership = (
        mask(draw(st.sampled_from([0.2, 0.5])))
        if members is None
        else np.isin(np.arange(n), sorted(members))
    )
    crashed = mask(draw(st.sampled_from([0.0, 0.15])))
    absent = mask(draw(st.sampled_from([0.0, 0.15])))
    return result, membership, crashed, absent, draw(st.booleans())


def verdict(check):
    """``None`` when ``check()`` accepts, else its error text."""
    try:
        check()
    except MISValidationError as error:
        return str(error)
    return None


def vertex_set(mask):
    return set(np.flatnonzero(mask).tolist())


class TestOneContract:
    @settings(max_examples=300, deadline=None)
    @given(contract_inputs())
    def test_four_checks_agree(self, inputs):
        result, membership, crashed, absent, recovered = inputs
        graph = result.graph
        mis = vertex_set(membership)
        replaced = replace(
            result,
            mis=mis,
            crashed=vertex_set(crashed),
            absent=vertex_set(absent),
            recovered=recovered,
        )
        run = MISRun(
            algorithm="contract",
            graph=graph,
            mis=set(mis),
            rounds=1,
            simulation=replaced,
            absent=vertex_set(absent),
            recovered=recovered,
        )
        expected = verdict(
            lambda: verify_mis(
                graph,
                mis,
                crashed=vertex_set(crashed),
                absent=vertex_set(absent),
                recovered=recovered,
            )
        )
        assert verdict(replaced.verify) == expected
        assert verdict(run.verify) == expected
        assert verdict(
            lambda: verify_mis_rows(
                graph,
                membership[None, :],
                crashed[None, :],
                absent[None, :],
                np.array([recovered]),
            )
        ) == expected
