"""Unit tests for the feedback policies (Table 1 / Definition 1)."""

import pytest

from repro.core.policy import ExponentFeedbackNode, FeedbackNode


class TestExponentFeedbackNode:
    def test_initial_state(self):
        node = ExponentFeedbackNode()
        assert node.beep_probability() == 0.5

    def test_hearing_halves(self):
        node = ExponentFeedbackNode()
        node.observe_first_exchange(did_beep=False, heard_beep=True)
        assert node.beep_probability() == 0.25
        node.observe_first_exchange(did_beep=True, heard_beep=True)
        assert node.beep_probability() == 0.125

    def test_silence_doubles_with_cap(self):
        node = ExponentFeedbackNode()
        node.observe_first_exchange(False, True)
        node.observe_first_exchange(False, True)
        assert node.beep_probability() == 0.125
        node.observe_first_exchange(False, False)
        assert node.beep_probability() == 0.25
        node.observe_first_exchange(False, False)
        assert node.beep_probability() == 0.5
        node.observe_first_exchange(False, False)
        assert node.beep_probability() == 0.5  # capped

    def test_exponent_floor_is_one(self):
        node = ExponentFeedbackNode()
        for _ in range(5):
            node.observe_first_exchange(False, False)
        assert node.beep_probability() == 0.5

    def test_exponent_grows_unboundedly(self):
        node = ExponentFeedbackNode()
        for _ in range(60):
            node.observe_first_exchange(False, True)
        assert node.beep_probability() == pytest.approx(2.0 ** -61)

    def test_update_ignores_own_beep_flag(self):
        # Definition 1's updates depend only on whether a neighbour beeped.
        a = ExponentFeedbackNode()
        b = ExponentFeedbackNode()
        a.observe_first_exchange(did_beep=True, heard_beep=True)
        b.observe_first_exchange(did_beep=False, heard_beep=True)
        assert a.beep_probability() == b.beep_probability()


class TestFeedbackNode:
    def test_defaults_match_exponent_policy(self):
        general = FeedbackNode()
        exact = ExponentFeedbackNode()
        observations = [True, True, False, True, False, False, False, True]
        for heard in observations:
            general.observe_first_exchange(False, heard)
            exact.observe_first_exchange(False, heard)
            assert general.beep_probability() == exact.beep_probability()

    def test_custom_factors(self):
        node = FeedbackNode(decrease_factor=0.4, increase_factor=1.5)
        node.observe_first_exchange(False, True)
        assert node.probability == pytest.approx(0.2)
        node.observe_first_exchange(False, False)
        assert node.probability == pytest.approx(0.3)

    def test_cap_respected(self):
        node = FeedbackNode(increase_factor=10.0, max_probability=0.5)
        node.observe_first_exchange(False, False)
        assert node.probability == 0.5

    def test_floor_respected(self):
        node = FeedbackNode(min_probability=0.1)
        for _ in range(10):
            node.observe_first_exchange(False, True)
        assert node.probability == pytest.approx(0.1)

    def test_custom_initial_probability(self):
        node = FeedbackNode(initial_probability=0.125)
        assert node.beep_probability() == 0.125

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"decrease_factor": 0.0},
            {"decrease_factor": 1.0},
            {"increase_factor": 1.0},
            {"increase_factor": 0.5},
            {"max_probability": 0.0},
            {"max_probability": 1.5},
            {"min_probability": -0.1},
            {"min_probability": 0.9},
            {"initial_probability": 0.0},
            {"initial_probability": 0.9},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FeedbackNode(**kwargs)
