"""Unit tests for the RK4 integrator."""

import math

import numpy as np
import pytest

from repro.bio.ode import rk4_integrate, rk4_step


class TestRk4Step:
    def test_exact_for_constant_derivative(self):
        f = lambda t, y: np.array([2.0])
        y1 = rk4_step(f, 0.0, np.array([1.0]), 0.5)
        assert y1[0] == pytest.approx(2.0)

    def test_exponential_accuracy(self):
        f = lambda t, y: y
        y1 = rk4_step(f, 0.0, np.array([1.0]), 0.1)
        assert y1[0] == pytest.approx(math.exp(0.1), rel=1e-7)


class TestRk4Integrate:
    def test_exponential_decay(self):
        f = lambda t, y: -y
        times, states = rk4_integrate(f, np.array([1.0]), (0.0, 2.0), 0.01)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(2.0)
        assert states[-1, 0] == pytest.approx(math.exp(-2.0), rel=1e-6)

    def test_harmonic_oscillator_energy(self):
        # y = (position, velocity); energy must be conserved to high order.
        def f(t, y):
            return np.array([y[1], -y[0]])

        _times, states = rk4_integrate(
            f, np.array([1.0, 0.0]), (0.0, 10.0), 0.01
        )
        energies = states[:, 0] ** 2 + states[:, 1] ** 2
        assert np.allclose(energies, 1.0, atol=1e-6)

    def test_time_dependent_rhs(self):
        f = lambda t, y: np.array([t])
        _times, states = rk4_integrate(f, np.array([0.0]), (0.0, 3.0), 0.01)
        assert states[-1, 0] == pytest.approx(4.5, rel=1e-8)

    def test_final_partial_step(self):
        f = lambda t, y: np.array([1.0])
        times, states = rk4_integrate(f, np.array([0.0]), (0.0, 1.05), 0.1)
        assert times[-1] == pytest.approx(1.05)
        assert states[-1, 0] == pytest.approx(1.05)

    def test_record_every(self):
        f = lambda t, y: -y
        times_all, _ = rk4_integrate(f, np.array([1.0]), (0.0, 1.0), 0.1)
        times_sparse, states_sparse = rk4_integrate(
            f, np.array([1.0]), (0.0, 1.0), 0.1, record_every=5
        )
        assert len(times_sparse) < len(times_all)
        assert times_sparse[-1] == pytest.approx(1.0)
        assert states_sparse[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-6)

    def test_initial_state_not_mutated(self):
        y0 = np.array([1.0])
        rk4_integrate(lambda t, y: -y, y0, (0.0, 1.0), 0.1)
        assert y0[0] == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_span": (1.0, 0.0), "dt": 0.1},
            {"t_span": (0.0, 1.0), "dt": 0.0},
            {"t_span": (0.0, 1.0), "dt": 0.1, "record_every": 0},
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            rk4_integrate(lambda t, y: y, np.array([1.0]), **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_span": (0.0, 1.0), "dt": math.nan},
            {"t_span": (0.0, 1.0), "dt": math.inf},
            {"t_span": (0.0, math.nan), "dt": 0.1},
            {"t_span": (math.nan, 1.0), "dt": 0.1},
            {"t_span": (0.0, math.inf), "dt": 0.1},
        ],
    )
    def test_non_finite_arguments_named(self, kwargs):
        with pytest.raises(ValueError, match="nan|inf"):
            rk4_integrate(lambda t, y: y, np.array([1.0]), **kwargs)


class TestStackedStates:
    @staticmethod
    def f(t, y):
        # Nonlinear, time-dependent and row-independent.
        return -y ** 3 + np.sin(t) * y + 0.1

    def test_states_keep_the_initial_shape(self):
        y0 = np.zeros((3, 4))
        times, states = rk4_integrate(self.f, y0, (0.0, 1.0), 0.1, 4)
        assert states.shape == (len(times), 3, 4)

    def test_stack_equals_per_row_integration_bit_for_bit(self):
        rows = np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, 6))
        times, stacked = rk4_integrate(self.f, rows, (0.0, 2.03), 0.05, 3)
        for index, row in enumerate(rows):
            row_times, alone = rk4_integrate(
                self.f, row, (0.0, 2.03), 0.05, 3
            )
            assert np.array_equal(row_times, times)
            assert np.array_equal(alone, stacked[:, index])
