"""The paper's algorithm as a runnable :class:`MISAlgorithm`.

This is a thin adapter: the policy lives in :mod:`repro.core.policy`, the
round semantics in :mod:`repro.beeping.scheduler` and the run in
:class:`~repro.algorithms.base.BeepingMIS`, so the feedback algorithm, its
robustness variants and the baselines all share one calling convention.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.base import BeepingMIS
from repro.beeping.scheduler import NodeFactory
from repro.core.policy import ExponentFeedbackNode
from repro.graphs.graph import Graph


class FeedbackMIS(BeepingMIS):
    """The local-feedback beeping MIS algorithm (Definition 1).

    By default every vertex runs the exact exponent policy of the paper
    (``p = 2^-n(v)``, start ``1/2``, halve on hearing a beep, double
    otherwise).  A custom ``node_factory`` switches in any of the Section 6
    robustness variants from :mod:`repro.core.variants`.
    """

    def __init__(self, node_factory: Optional[NodeFactory] = None) -> None:
        self._factory = node_factory or (
            lambda vertex: ExponentFeedbackNode()
        )

    @property
    def name(self) -> str:
        return "feedback"

    def node_factory(self, graph: Graph) -> NodeFactory:
        return self._factory
