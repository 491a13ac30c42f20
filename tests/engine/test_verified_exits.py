"""Every engine entry point verifies its output: no run can skip the check.

A sabotaged neighbour reduction — :meth:`NeighbourOperand.any` answering
"no neighbour" everywhere — lets adjacent vertices join the same set.
Each entry point, called with its defaults, must then raise
:class:`~repro.graphs.validation.MISValidationError` instead of returning
the corrupt rows.  The graphs are wide enough (``trials * n`` above the
frontier's 256-cell floor) that round 0 is a dense-phase round, which asks
the operand for its OR in every fabric and rng mode.
"""

from random import Random

import numpy as np
import pytest

from repro.beeping.rng import derive_seed_block
from repro.engine.applications import (
    APPLICATION_RULES,
    ApplicationArmadaSimulator,
    ApplicationFleetSimulator,
)
from repro.engine.batch import run_batch
from repro.engine.fleet import ArmadaSimulator, FleetSimulator
from repro.engine.messages import (
    MESSAGE_RULES,
    MessageArmadaSimulator,
    MessageFleetSimulator,
)
from repro.engine.rules import FeedbackRule
from repro.engine.sparse import NeighbourOperand
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.validation import MISValidationError

BACKENDS = ("dense", "sparse")
TRIALS = 8


@pytest.fixture(autouse=True)
def deaf_operand(monkeypatch):
    """Every vertex hears nothing, so every beeper joins."""

    def deaf(self, flags, sizes, out=None):
        if out is None:
            return np.zeros(flags.shape, dtype=bool)
        out[...] = False
        return out

    monkeypatch.setattr(NeighbourOperand, "any", deaf)


def graphs():
    return [gnp_random_graph(60, 0.3, Random(5100 + g)) for g in range(2)]


def seed_rows():
    return [derive_seed_block(51, g, count=TRIALS) for g in range(2)]


@pytest.mark.parametrize("backend", BACKENDS)
class TestSabotagedRunsRaise:
    def test_fleet(self, backend):
        with pytest.raises(MISValidationError):
            FleetSimulator(graphs()[0], backend=backend).run_fleet(
                FeedbackRule(), seed_rows()[0]
            )

    def test_armada(self, backend):
        with pytest.raises(MISValidationError):
            ArmadaSimulator(graphs(), backend=backend).run_armada(
                FeedbackRule(), seed_rows()
            )

    @pytest.mark.parametrize("rule_name", sorted(MESSAGE_RULES))
    def test_message_fleet(self, backend, rule_name):
        with pytest.raises(MISValidationError):
            MessageFleetSimulator(graphs()[0], backend=backend).run_fleet(
                MESSAGE_RULES[rule_name](), seed_rows()[0]
            )

    @pytest.mark.parametrize("rule_name", sorted(MESSAGE_RULES))
    def test_message_armada(self, backend, rule_name):
        with pytest.raises(MISValidationError):
            MessageArmadaSimulator(graphs(), backend=backend).run_armada(
                MESSAGE_RULES[rule_name](), seed_rows()
            )

    @pytest.mark.parametrize("rule_name", sorted(APPLICATION_RULES))
    def test_application_fleet(self, backend, rule_name):
        rule = APPLICATION_RULES[rule_name]()
        with pytest.raises(MISValidationError):
            ApplicationFleetSimulator(
                graphs()[0], rule, backend=backend
            ).run_fleet(seed_rows()[0])

    @pytest.mark.parametrize("rule_name", sorted(APPLICATION_RULES))
    def test_application_armada(self, backend, rule_name):
        rule = APPLICATION_RULES[rule_name]()
        # Same-host-size graphs: matching's host width is the edge count.
        graph = graphs()[0]
        with pytest.raises(MISValidationError):
            ApplicationArmadaSimulator(
                [graph, graph], rule, backend=backend
            ).run_armada(seed_rows())

    def test_batch(self, backend):
        with pytest.raises(MISValidationError):
            run_batch(graphs()[0], FeedbackRule, TRIALS, 52, backend=backend)
