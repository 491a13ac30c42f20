"""A minimal fixed-step Runge–Kutta 4 integrator.

scipy is available in the environment, but the biology models only need a
plain non-stiff fixed-step integrator over numpy state vectors, so we keep
the substrate self-contained (and deterministic across scipy versions).
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

Derivative = Callable[[float, np.ndarray], np.ndarray]


def rk4_step(
    f: Derivative, t: float, y: np.ndarray, dt: float
) -> np.ndarray:
    """One classical RK4 step from ``(t, y)`` with step size ``dt``."""
    k1 = f(t, y)
    k2 = f(t + dt / 2.0, y + dt / 2.0 * k1)
    k3 = f(t + dt / 2.0, y + dt / 2.0 * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_integrate(
    f: Derivative,
    y0: np.ndarray,
    t_span: Tuple[float, float],
    dt: float,
    record_every: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Integrate ``y' = f(t, y)`` from ``t_span[0]`` to ``t_span[1]``.

    Parameters
    ----------
    f:
        Right-hand side; must return an array with ``y``'s shape.
    y0:
        Initial state of any shape (copied; never mutated).  A stack of
        independent systems, one per row, shares one loop; each row's
        result equals integrating that row alone when ``f`` computes
        every row exactly as it would alone.
    t_span:
        ``(t0, t1)``, both finite, with ``t1 > t0``.
    dt:
        Finite fixed step size > 0; the final step is shortened to land
        on ``t1``.
    record_every:
        Keep every k-th state (plus the final one) in the returned
        trajectory, to bound memory on long integrations.

    Returns
    -------
    ``(times, states)``: 1-D times and a ``(len(times), *y0.shape)``
    array of states, both including the initial and final points.
    """
    t0, t1 = t_span
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got t_span={t_span}")
    if t1 <= t0:
        raise ValueError(f"need t1 > t0, got t_span={t_span}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    y = np.array(y0, dtype=np.float64, copy=True)
    times = [t0]
    states = [y.copy()]
    t = t0
    step_count = 0
    while t < t1 - 1e-12:
        step = min(dt, t1 - t)
        y = rk4_step(f, t, y, step)
        t += step
        step_count += 1
        if step_count % record_every == 0 or t >= t1 - 1e-12:
            times.append(t)
            states.append(y.copy())
    return np.array(times), np.array(states)
