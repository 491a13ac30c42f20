"""MIS algorithms: the paper's contribution and every baseline it cites.

Beeping-model algorithms (each a :class:`~repro.algorithms.base.BeepingMIS`,
which runs it on :class:`repro.beeping.BeepingSimulation`):

- :class:`FeedbackMIS` — the paper's local-feedback algorithm (Definition 1).
- :class:`AfekSweepMIS` — Afek et al. DISC 2011: preset global sweeping
  probabilities, no knowledge of ``n`` or the maximum degree.
- :class:`AfekGlobalMIS` — Afek et al. Science 2011: gradually increasing
  global probabilities computed from ``n`` and the maximum degree.

Message-passing baselines (not beeping; simulated directly):

- :class:`LubyMIS` — Luby's randomized algorithm, both the random-priority
  and marking variants.
- :class:`MetivierMIS` — the optimal-bit-complexity algorithm of Métivier
  et al. (2011).

Reference algorithms:

- :class:`SequentialGreedyMIS` — the trivial centralised scan.
- :func:`maximum_independent_set` — exact MaxIS by branch and bound (tiny
  graphs only; used to compare MIS sizes).
"""

from repro.algorithms.base import MISAlgorithm, MISRun
from repro.algorithms.feedback import FeedbackMIS
from repro.algorithms.afek_sweep import AfekSweepMIS, SweepScheduleNode, sweep_probability
from repro.algorithms.afek_global import AfekGlobalMIS, global_schedule
from repro.algorithms.luby import LubyMIS
from repro.algorithms.metivier import MetivierMIS
from repro.algorithms.greedy import SequentialGreedyMIS, greedy_mis
from repro.algorithms.local_minimum import LocalMinimumIDMIS
from repro.algorithms.exact import maximum_independent_set
from repro.algorithms.registry import available_algorithms, make_algorithm

__all__ = [
    "AfekGlobalMIS",
    "AfekSweepMIS",
    "FeedbackMIS",
    "LocalMinimumIDMIS",
    "LubyMIS",
    "MISAlgorithm",
    "MISRun",
    "MetivierMIS",
    "SequentialGreedyMIS",
    "SweepScheduleNode",
    "available_algorithms",
    "global_schedule",
    "greedy_mis",
    "make_algorithm",
    "maximum_independent_set",
    "sweep_probability",
]
