"""The feedback beep-probability policies (Table 1 / Definition 1).

Two implementations are provided:

- :class:`ExponentFeedbackNode` is the *exact* algorithm of Definition 1:
  the node keeps an integer exponent ``n(v)`` with ``p = 2^-n(v)``,
  ``n(0, v) = 1``; hearing a beep increments the exponent (p halves), not
  hearing one decrements it down to 1 (p doubles, capped at 1/2).

- :class:`FeedbackNode` is the generalised multiplicative form used by the
  robustness discussion in Section 6: arbitrary decrease/increase factors,
  cap, optional floor and arbitrary initial probability.  With the default
  parameters it coincides with :class:`ExponentFeedbackNode` (and a test
  asserts this).

Both are pure policies — all MIS semantics live in the scheduler.
"""

from __future__ import annotations

from repro.beeping.node import BeepingNode


class ExponentFeedbackNode(BeepingNode):
    """The algorithm of Definition 1, exactly as stated in the paper.

    State is the integer exponent ``n(v, t)``; the beep probability is
    ``2^-n(v, t)``.  Update rules (for a node that stays active):

    - a neighbour beeped            → ``n ← n + 1``        (p halves)
    - no neighbour beeped           → ``n ← max(n - 1, 1)`` (p doubles, cap ½)
    """

    __slots__ = ("_exponent",)

    INITIAL_EXPONENT = 1

    def __init__(self) -> None:
        self._exponent = self.INITIAL_EXPONENT

    def beep_probability(self) -> float:
        return 2.0 ** -self._exponent

    def observe_first_exchange(self, did_beep: bool, heard_beep: bool) -> None:
        if heard_beep:
            self._exponent += 1
        else:
            self._exponent = max(self._exponent - 1, 1)


class FeedbackNode(BeepingNode):
    """Generalised multiplicative feedback (Section 6 robustness form).

    Parameters
    ----------
    initial_probability:
        Starting beep probability (paper default ``1/2``).
    decrease_factor:
        Multiplier applied when a neighbour beeps; must be in ``(0, 1)``.
    increase_factor:
        Multiplier applied when no neighbour beeps; must be ``> 1``.
    max_probability:
        Cap on the probability (paper default ``1/2``).
    min_probability:
        Optional floor (default 0.0, i.e. no floor).  The exact Definition 1
        policy has an implicit floor of 0 (the exponent may grow without
        bound) and cap of ``1/2``.
    """

    __slots__ = (
        "_probability",
        "_decrease_factor",
        "_increase_factor",
        "_max_probability",
        "_min_probability",
    )

    def __init__(
        self,
        initial_probability: float = 0.5,
        decrease_factor: float = 0.5,
        increase_factor: float = 2.0,
        max_probability: float = 0.5,
        min_probability: float = 0.0,
    ) -> None:
        if not 0.0 < decrease_factor < 1.0:
            raise ValueError(
                f"decrease_factor must be in (0, 1), got {decrease_factor}"
            )
        if increase_factor <= 1.0:
            raise ValueError(
                f"increase_factor must be > 1, got {increase_factor}"
            )
        if not 0.0 < max_probability <= 1.0:
            raise ValueError(
                f"max_probability must be in (0, 1], got {max_probability}"
            )
        if not 0.0 <= min_probability <= max_probability:
            raise ValueError(
                "min_probability must be in [0, max_probability], got "
                f"{min_probability}"
            )
        if not 0.0 < initial_probability <= max_probability:
            raise ValueError(
                "initial_probability must be in (0, max_probability], got "
                f"{initial_probability}"
            )
        self._probability = initial_probability
        self._decrease_factor = decrease_factor
        self._increase_factor = increase_factor
        self._max_probability = max_probability
        self._min_probability = min_probability

    @property
    def probability(self) -> float:
        """The current beep probability."""
        return self._probability

    def beep_probability(self) -> float:
        return self._probability

    def observe_first_exchange(self, did_beep: bool, heard_beep: bool) -> None:
        if heard_beep:
            self._probability = max(
                self._probability * self._decrease_factor,
                self._min_probability,
            )
        else:
            self._probability = min(
                self._probability * self._increase_factor,
                self._max_probability,
            )
