"""The per-node protocol of a beeping MIS algorithm.

Every beeping algorithm in this reproduction — the paper's feedback
algorithm and both Afek et al. baselines — shares the same *join* logic
(beep unopposed → join; neighbour joins → retire).  What differs between
algorithms is only **how the beep probability is chosen** each round.  A
:class:`BeepingNode` therefore exposes exactly two hooks to the scheduler:

- :meth:`BeepingNode.beep_probability` — the probability of beeping in the
  coming round;
- :meth:`BeepingNode.observe_first_exchange` — feedback after the first
  exchange (did I beep? did I hear a beep?).

The scheduler owns state transitions (``ACTIVE → IN_MIS / RETIRED``), so a
policy bug cannot violate the MIS semantics.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod


class NodeState(enum.Enum):
    """Lifecycle states of a node, matching Figure 2 of the paper.

    ``ACTIVE`` covers both the "initial" and transient "signalling" states of
    the figure (signalling lasts only within a round and is tracked by the
    scheduler); ``IN_MIS`` and ``RETIRED`` are the two terminal (inactive)
    states.
    """

    ACTIVE = "active"
    IN_MIS = "in_mis"
    RETIRED = "retired"


class BeepingNode(ABC):
    """Abstract per-node beep-probability policy.

    Subclasses must be cheap to construct: one instance is created per
    vertex per simulation.
    """

    @abstractmethod
    def beep_probability(self) -> float:
        """The probability with which this node beeps in the coming round.

        Must lie in ``[0, 1]``; the scheduler validates this.
        """

    @abstractmethod
    def observe_first_exchange(self, did_beep: bool, heard_beep: bool) -> None:
        """Feedback delivered after the first exchange of a round.

        Parameters
        ----------
        did_beep:
            Whether this node itself beeped this round.
        heard_beep:
            Whether at least one neighbour's beep reached this node
            (the one-bit OR observation of the beeping model).
        """

    def on_round_start(self, round_index: int) -> None:
        """Called at the start of each round (default: no-op).

        Globally scheduled algorithms (Afek et al.) override this to advance
        their preset probability sequence.
        """
