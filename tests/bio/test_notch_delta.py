"""Tests for the Collier Notch–Delta model (the Figure 4 mechanism)."""

from random import Random

import numpy as np
import pytest

from repro.bio.notch_delta import (
    CollierParameters,
    NotchDeltaModel,
    two_cell_demo,
)
from repro.bio.ode import rk4_integrate
from repro.graphs.graph import Graph
from repro.graphs.structured import hex_lattice_graph


class TestParameters:
    def test_defaults_are_collier_1996(self):
        params = CollierParameters()
        assert params.a == 0.01
        assert params.b == 100.0
        assert params.k == 2.0
        assert params.h == 2.0
        assert params.nu == 1.0

    def test_trans_activation_monotone_increasing(self):
        params = CollierParameters()
        xs = np.linspace(0.0, 1.0, 20)
        ys = params.trans_activation(xs)
        assert (np.diff(ys) >= 0).all()
        assert ys[0] == 0.0

    def test_cis_inhibition_monotone_decreasing(self):
        params = CollierParameters()
        xs = np.linspace(0.0, 1.0, 20)
        ys = params.cis_inhibition(xs)
        assert (np.diff(ys) <= 0).all()
        assert ys[0] == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [{"a": 0.0}, {"b": -1.0}, {"k": 0.0}, {"h": -2.0}, {"nu": 0.0}],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CollierParameters(**kwargs)

    @pytest.mark.parametrize("name", ["a", "b", "k", "h", "nu"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite.*{value}"):
            CollierParameters(**{name: value})


class TestTwoCellDemo:
    """Figure 4: a slight Delta excess flips the pair into mutually
    exclusive sender/receiver states."""

    def test_mutually_exclusive_states(self):
        result = two_cell_demo()
        sender_delta = result.final_delta[1]
        receiver_delta = result.final_delta[0]
        assert sender_delta > 0.9
        assert receiver_delta < 0.1
        assert result.final_notch[0] > 0.9
        assert result.final_notch[1] < 0.1

    def test_bias_direction_decides_winner(self):
        biased_up = two_cell_demo(delta_bias=0.05)
        assert biased_up.final_delta[1] > biased_up.final_delta[0]

    def test_trajectories_recorded(self):
        result = two_cell_demo()
        assert result.times.shape[0] == result.delta.shape[0]
        assert result.delta.shape[1] == 2
        trajectory = result.delta_trajectory(1)
        assert trajectory[0] == pytest.approx(0.51, abs=0.01)
        assert trajectory[-1] > 0.9
        assert result.notch_trajectory(0)[-1] > 0.9


class TestLatticeModel:
    def test_pattern_is_mis(self):
        from repro.bio.sop import analyze_sop_pattern, select_sops_by_delta

        graph = hex_lattice_graph(7, 7)
        model = NotchDeltaModel(graph)
        result = model.run(Random(9), t_end=100.0)
        sops = select_sops_by_delta(result.final_delta)
        report = analyze_sop_pattern(graph, sops, result.final_delta)
        assert report.num_sops > 0
        assert report.is_independent
        # Lateral inhibition leaves no uncovered cell on a lattice run
        # that has converged.
        assert report.uncovered_cells == 0
        assert report.delta_separation > 0.5

    def test_isolated_cell_becomes_sender(self):
        graph = Graph(1)
        model = NotchDeltaModel(graph)
        result = model.run(Random(1), t_end=40.0)
        # No neighbours -> no Notch activation -> Delta rises to G(0)=1.
        assert result.final_delta[0] > 0.9

    def test_custom_initial_state(self):
        graph = Graph(2, [(0, 1)])
        model = NotchDeltaModel(graph)
        initial = np.array([0.5, 0.5, 0.9, 0.1])
        result = model.run(Random(1), initial_state=initial, t_end=40.0)
        # Cell 0 starts Delta-rich and must win.
        assert result.final_delta[0] > result.final_delta[1]

    def test_initial_state_shape_checked(self):
        model = NotchDeltaModel(Graph(2, [(0, 1)]))
        with pytest.raises(ValueError, match="shape"):
            model.run(Random(1), initial_state=np.zeros(3))

    def test_initial_state_perturbation_bounds(self):
        model = NotchDeltaModel(Graph(3))
        with pytest.raises(ValueError):
            model.initial_state(Random(1), perturbation=1.5)
        state = model.initial_state(Random(1), perturbation=0.02)
        assert ((state >= 0.48) & (state <= 0.52)).all()

    @pytest.mark.parametrize(
        "kwargs", [{"t_end": float("nan")}, {"dt": float("nan")}]
    )
    def test_non_finite_run_rejected(self, kwargs):
        model = NotchDeltaModel(Graph(2, [(0, 1)]))
        with pytest.raises(ValueError, match="nan"):
            model.run(Random(1), **kwargs)

    def test_deterministic_given_seed(self):
        graph = hex_lattice_graph(4, 4)
        model = NotchDeltaModel(graph)
        a = model.run(Random(3), t_end=30.0)
        b = model.run(Random(3), t_end=30.0)
        assert np.array_equal(a.final_delta, b.final_delta)


class TestStackedDerivative:
    """A ``(R, 2n)`` stack of states is R independent runs, bit for bit."""

    @pytest.fixture
    def stack(self):
        graph = hex_lattice_graph(5, 7)  # rows != cols
        model = NotchDeltaModel(graph)
        states = np.array(
            [model.initial_state(Random(seed), 0.3) for seed in range(6)]
        )
        return graph, states

    def test_stack_equals_one_row_calls(self, stack):
        graph, states = stack
        model = NotchDeltaModel(graph)
        stacked = model.derivative(0.0, states)
        assert stacked.shape == states.shape
        for row, state in zip(stacked, states):
            assert np.array_equal(row, model.derivative(0.0, state))

    def test_stacked_integration_equals_model_runs(self, stack):
        graph, states = stack
        model = NotchDeltaModel(graph)
        _times, stacked = rk4_integrate(
            model.derivative, states, (0.0, 7.37), 0.05, 10
        )
        n = graph.num_vertices
        for index, state in enumerate(states):
            run = model.run(Random(0), t_end=7.37, initial_state=state)
            assert np.array_equal(run.notch, stacked[:, index, :n])
            assert np.array_equal(run.delta, stacked[:, index, n:])
