"""Unit tests for node states and the fixed-probability policy."""

import pytest

from repro.beeping.node import BeepingNode, NodeState
from tests.beeping.doubles import FixedProbabilityNode


class TestNodeState:
    def test_values_stable(self):
        assert NodeState.ACTIVE.value == "active"
        assert NodeState.IN_MIS.value == "in_mis"
        assert NodeState.RETIRED.value == "retired"


class TestFixedProbabilityNode:
    def test_returns_configured_probability(self):
        node = FixedProbabilityNode(0.3)
        assert node.beep_probability() == 0.3

    def test_observation_is_ignored(self):
        node = FixedProbabilityNode(0.3)
        node.observe_first_exchange(True, True)
        node.observe_first_exchange(False, False)
        assert node.beep_probability() == 0.3

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            FixedProbabilityNode(1.5)
        with pytest.raises(ValueError):
            FixedProbabilityNode(-0.1)

    def test_extremes_allowed(self):
        assert FixedProbabilityNode(0.0).beep_probability() == 0.0
        assert FixedProbabilityNode(1.0).beep_probability() == 1.0

    def test_default_round_start_is_noop(self):
        node = FixedProbabilityNode(0.5)
        node.on_round_start(17)
        assert node.beep_probability() == 0.5

    def test_abstract_base_not_instantiable(self):
        with pytest.raises(TypeError):
            BeepingNode()
