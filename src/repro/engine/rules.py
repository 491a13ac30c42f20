"""Probability-update rules for the vectorised *beeping* engines.

A rule owns the per-vertex beep probability vector: it provides the initial
probabilities and updates them from the round's observations.  The three
probability rules mirror the three beeping algorithms in
:mod:`repro.algorithms`:

- :class:`FeedbackRule`      ↔ :class:`repro.algorithms.FeedbackMIS`
- :class:`SweepRule`         ↔ :class:`repro.algorithms.AfekSweepMIS`
- :class:`GlobalScheduleRule`↔ :class:`repro.algorithms.AfekGlobalMIS`

All operate on full-length numpy vectors; entries of inactive vertices are
carried along but ignored (the simulator masks them out).

The *message-passing* algorithms (the Luby variants, Métivier et al.,
local-minimum-id) have their own kernel API — the sibling
:class:`~repro.engine.messages.MessageRule`, whose per-round exchange is
a neighbour reduction over priority keys rather than a probability
update; see :mod:`repro.engine.messages`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.algorithms.afek_global import global_schedule
from repro.algorithms.afek_sweep import sweep_probability


class ProbabilityRule(ABC):
    """The probability policy of one vectorised simulation run.

    ``initial`` and ``update`` are written against per-trial vectors of
    length n, but the fleet engine calls them with ``(trials, n)`` matrices
    — one row per concurrent trial.  A rule opts into that by setting
    ``trial_parallel = True``, promising its ``update`` is
    elementwise/broadcast-safe and keeps no per-run mutable state, so each
    matrix row evolves exactly as the corresponding vector would.  The
    default is ``False``, and the lockstep engines reject such a rule with
    a ``ValueError`` — so a stateful subclass cannot share one instance
    across trials by accident.
    """

    #: Whether one instance may drive many lockstep trials at once (opt-in).
    trial_parallel: bool = False

    @abstractmethod
    def initial(self, num_vertices: int) -> np.ndarray:
        """The probability vector for round 0 (float64, length n)."""

    @abstractmethod
    def update(
        self,
        probabilities: np.ndarray,
        heard: np.ndarray,
        active: np.ndarray,
        round_index: int,
    ) -> np.ndarray:
        """The probability vector for the next round.

        Parameters
        ----------
        probabilities:
            Current probabilities (length n).
        heard:
            Boolean vector: vertex heard at least one (noisy) beep.
        active:
            Boolean vector: vertex was active this round.
        round_index:
            0-based index of the round that just ran.
        """

    @property
    def name(self) -> str:
        """Stable identifier matching the algorithm registry."""
        return type(self).__name__


class FeedbackRule(ProbabilityRule):
    """Definition 1 vectorised: halve on hearing, double (cap ½) otherwise.

    The generalised Section 6 parameters are supported exactly as in
    :class:`repro.core.policy.FeedbackNode`.
    """

    trial_parallel = True

    def __init__(
        self,
        initial_probability: float = 0.5,
        decrease_factor: float = 0.5,
        increase_factor: float = 2.0,
        max_probability: float = 0.5,
    ) -> None:
        if not 0.0 < decrease_factor < 1.0:
            raise ValueError("decrease_factor must be in (0, 1)")
        if increase_factor <= 1.0:
            raise ValueError("increase_factor must be > 1")
        if not 0.0 < initial_probability <= max_probability <= 1.0:
            raise ValueError(
                "need 0 < initial_probability <= max_probability <= 1"
            )
        self._initial_probability = initial_probability
        self._decrease_factor = decrease_factor
        self._increase_factor = increase_factor
        self._max_probability = max_probability

    @property
    def name(self) -> str:
        return "feedback"

    def initial(self, num_vertices: int) -> np.ndarray:
        return np.full(num_vertices, self._initial_probability, dtype=np.float64)

    def update(
        self,
        probabilities: np.ndarray,
        heard: np.ndarray,
        active: np.ndarray,
        round_index: int,
    ) -> np.ndarray:
        # Scratch buffers are reused while the batch shape is stable (the
        # engines call with one shape per phase), cutting three hot-loop
        # allocations to none; the returned buffer may alias a previous
        # return, which the engines' `p = rule.update(p, ...)` pattern
        # permits.  Pure elementwise arithmetic — no semantic state.
        down, result = self._scratch(probabilities.shape)
        np.multiply(probabilities, self._decrease_factor, out=down)
        np.multiply(probabilities, self._increase_factor, out=result)
        np.minimum(result, self._max_probability, out=result)
        np.copyto(result, down, where=heard)
        return result

    def _scratch(self, shape):
        cached = getattr(self, "_scratch_buffers", None)
        if cached is None or cached[0] != shape:
            cached = (
                shape,
                np.empty(shape, dtype=np.float64),
                np.empty(shape, dtype=np.float64),
            )
            self._scratch_buffers = cached
        return cached[1], cached[2]


class SweepRule(ProbabilityRule):
    """The DISC 2011 global sweep: shared p from the phase schedule."""

    trial_parallel = True

    @property
    def name(self) -> str:
        return "afek-sweep"

    def initial(self, num_vertices: int) -> np.ndarray:
        return np.full(num_vertices, sweep_probability(0), dtype=np.float64)

    def update(
        self,
        probabilities: np.ndarray,
        heard: np.ndarray,
        active: np.ndarray,
        round_index: int,
    ) -> np.ndarray:
        shared = sweep_probability(round_index + 1)
        # Same scratch discipline as FeedbackRule.update: reuse the
        # result buffer while the batch shape is stable.
        cached = getattr(self, "_scratch_buffer", None)
        if cached is None or cached.shape != probabilities.shape:
            cached = np.empty_like(probabilities)
            self._scratch_buffer = cached
        cached[:] = shared
        return cached


class GlobalScheduleRule(ProbabilityRule):
    """The Science 2011 schedule: p from n and the maximum degree."""

    trial_parallel = True

    def __init__(self, num_vertices: int, max_degree: int) -> None:
        self._num_vertices = num_vertices
        self._max_degree = max_degree

    @property
    def name(self) -> str:
        return "afek-global"

    def _shared(self, round_index: int) -> float:
        return global_schedule(
            round_index, self._num_vertices, self._max_degree
        )

    def initial(self, num_vertices: int) -> np.ndarray:
        return np.full(num_vertices, self._shared(0), dtype=np.float64)

    def update(
        self,
        probabilities: np.ndarray,
        heard: np.ndarray,
        active: np.ndarray,
        round_index: int,
    ) -> np.ndarray:
        return np.full_like(probabilities, self._shared(round_index + 1))
