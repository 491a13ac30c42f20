"""The Collier et al. (1996) Notch–Delta lateral inhibition model.

Reference [7] of the paper: "Pattern formation by lateral inhibition with
feedback: a mathematical model of Delta-Notch intercellular signalling",
J. Theor. Biol. 183(4).  Each cell ``i`` carries Notch activity ``n_i`` and
Delta activity ``d_i``:

    dn_i/dt = F(<d>_i) − n_i          F(x) = x^k / (a + x^k)
    dd_i/dt = ν·(G(n_i) − d_i)        G(x) = 1 / (1 + b·x^h)

where ``<d>_i`` is the mean Delta activity of ``i``'s neighbours.  Delta
*trans*-activates neighbouring Notch (F increasing); Notch *cis*-inhibits
the cell's own Delta (G decreasing) — together the positive feedback loop
of the paper's Figure 4.  With the original parameters (a=0.01, b=100,
k=h=2, ν=1) the homogeneous steady state is unstable and small initial
differences amplify into a fine-grained pattern of mutually exclusive
states: scattered high-Delta "sender" cells (the SOPs) surrounded by
high-Notch receivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import List, Optional, Tuple

import numpy as np

from repro.bio.ode import rk4_integrate
from repro.graphs.graph import Graph


@dataclass(frozen=True)
class CollierParameters:
    """Parameters of the Collier model (defaults from the 1996 paper)."""

    a: float = 0.01
    b: float = 100.0
    k: float = 2.0
    h: float = 2.0
    nu: float = 1.0

    def __post_init__(self) -> None:
        for name in ("a", "b", "k", "h", "nu"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    def trans_activation(self, mean_delta: np.ndarray) -> np.ndarray:
        """F: Notch production from neighbours' mean Delta."""
        powered = np.power(np.maximum(mean_delta, 0.0), self.k)
        return powered / (self.a + powered)

    def cis_inhibition(self, notch: np.ndarray) -> np.ndarray:
        """G: Delta production, inhibited by the cell's own Notch."""
        powered = np.power(np.maximum(notch, 0.0), self.h)
        return 1.0 / (1.0 + self.b * powered)


@dataclass
class NotchDeltaResult:
    """The trajectory and final state of one lateral-inhibition run."""

    graph: Graph
    times: np.ndarray
    notch: np.ndarray  # shape (timesteps, cells)
    delta: np.ndarray  # shape (timesteps, cells)

    @property
    def final_notch(self) -> np.ndarray:
        """Notch activity of every cell at the final time."""
        return self.notch[-1]

    @property
    def final_delta(self) -> np.ndarray:
        """Delta activity of every cell at the final time."""
        return self.delta[-1]

    def delta_trajectory(self, cell: int) -> np.ndarray:
        """Delta activity of one cell over time."""
        return self.delta[:, cell]

    def notch_trajectory(self, cell: int) -> np.ndarray:
        """Notch activity of one cell over time."""
        return self.notch[:, cell]


class NotchDeltaModel:
    """The Collier model on an arbitrary cell-contact graph."""

    def __init__(
        self,
        graph: Graph,
        parameters: CollierParameters = CollierParameters(),
    ) -> None:
        self._graph = graph
        self._parameters = parameters
        # Row-normalised adjacency for the neighbour-mean <d>_i; isolated
        # cells see zero Delta.
        n = graph.num_vertices
        matrix = graph.adjacency_matrix().astype(np.float64)
        degrees = matrix.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._mean_operator = np.where(
                degrees[:, None] > 0, matrix / np.maximum(degrees, 1.0)[:, None], 0.0
            )

    @property
    def graph(self) -> Graph:
        """The cell-contact graph."""
        return self._graph

    @property
    def parameters(self) -> CollierParameters:
        """The model parameters."""
        return self._parameters

    def derivative(self, t: float, state: np.ndarray) -> np.ndarray:
        """Right-hand side over the packed state ``[notch..., delta...]``.

        ``state`` is one run's ``(2n,)`` vector or a ``(..., 2n)`` stack of
        runs; each row's derivative is bit-identical to its one-row call.
        """
        n = self._graph.num_vertices
        notch = state[..., :n]
        delta = state[..., n:]
        # One gemv per row, bit-identical to ``M @ delta``; a GEMM over the
        # stack (``delta @ M.T``) sums in another order and is not.
        mean_delta = np.matmul(self._mean_operator, delta[..., None])[..., 0]
        d_notch = self._parameters.trans_activation(mean_delta) - notch
        d_delta = self._parameters.nu * (
            self._parameters.cis_inhibition(notch) - delta
        )
        return np.concatenate([d_notch, d_delta], axis=-1)

    def initial_state(
        self, rng: Random, perturbation: float = 0.01
    ) -> np.ndarray:
        """A near-homogeneous initial state with small random differences.

        Lateral inhibition amplifies *small* asymmetries; a perfectly
        symmetric start would stay symmetric forever under the
        deterministic dynamics.
        """
        if not 0.0 <= perturbation < 1.0:
            raise ValueError(
                f"perturbation must be in [0, 1), got {perturbation}"
            )
        n = self._graph.num_vertices
        base = np.full(2 * n, 0.5)
        jitter = np.array(
            [rng.uniform(-perturbation, perturbation) for _ in range(2 * n)]
        )
        return np.clip(base + jitter, 0.0, 1.0)

    def run(
        self,
        rng: Random,
        t_end: float = 60.0,
        dt: float = 0.05,
        perturbation: float = 0.01,
        record_every: int = 10,
        initial_state: Optional[np.ndarray] = None,
    ) -> NotchDeltaResult:
        """Integrate the model and return the trajectory."""
        n = self._graph.num_vertices
        if initial_state is None:
            state0 = self.initial_state(rng, perturbation)
        else:
            state0 = np.asarray(initial_state, dtype=np.float64)
            if state0.shape != (2 * n,):
                raise ValueError(
                    f"initial_state must have shape ({2 * n},), got "
                    f"{state0.shape}"
                )
        times, states = rk4_integrate(
            self.derivative, state0, (0.0, t_end), dt, record_every
        )
        return NotchDeltaResult(
            graph=self._graph,
            times=times,
            notch=states[:, :n],
            delta=states[:, n:],
        )


def two_cell_demo(
    delta_bias: float = 0.01,
    t_end: float = 40.0,
    dt: float = 0.02,
) -> NotchDeltaResult:
    """Figure 4 as an experiment: two coupled cells, one with a slight
    excess of Delta, driven to mutually exclusive signalling states.

    Cell 1 starts with ``0.5 + delta_bias`` Delta, cell 0 with ``0.5``;
    the run ends with cell 1 as the high-Delta sender and cell 0 as the
    high-Notch receiver (asserted by the test-suite and the fig4 bench).
    """
    graph = Graph(2, [(0, 1)])
    model = NotchDeltaModel(graph)
    initial = np.array([0.5, 0.5, 0.5, 0.5 + delta_bias])
    times, states = rk4_integrate(
        model.derivative, initial, (0.0, t_end), dt, record_every=5
    )
    return NotchDeltaResult(
        graph=graph, times=times, notch=states[:, :2], delta=states[:, 2:]
    )
