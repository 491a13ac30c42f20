"""Test doubles for the per-node beeping protocol."""

from repro.beeping.node import BeepingNode


class FixedProbabilityNode(BeepingNode):
    """A node that always beeps with the same fixed probability.

    This is not one of the paper's algorithms; it is the simplest possible
    policy for exercising the scheduler in tests.
    """

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {probability}"
            )
        self._probability = probability

    def beep_probability(self) -> float:
        return self._probability

    def observe_first_exchange(self, did_beep: bool, heard_beep: bool) -> None:
        pass
