"""Tests for the robustness ablation drivers (scaled down)."""

import pytest

from repro.experiments.ablations import (
    factor_ablation,
    fault_ablation,
    initial_probability_ablation,
)


class TestFactorAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return factor_ablation(
            factor_pairs=((0.5, 2.0), (0.3, 3.0)),
            n=60,
            trials=8,
            master_seed=81,
        )

    def test_one_point_per_pair(self, result):
        assert len(result.points) == 2

    def test_factors_in_extra(self, result):
        assert result.points[0].extra == {"down": 0.5, "up": 2.0}

    def test_robustness_claim(self, result):
        """Perturbed factors stay within a small multiple of the baseline."""
        baseline = result.points[0].mean
        for point in result.points[1:]:
            assert point.mean < 4.0 * baseline

    def test_robustness_claim_at_n150(self):
        """Section 6 at n=150: every factor pair, the gentle (0.7, 1.3)
        included, stays within 3x the baseline's rounds."""
        result = factor_ablation(
            factor_pairs=((0.5, 2.0), (0.3, 3.0), (0.7, 1.3)),
            n=150,
            trials=4,
            master_seed=11,
        )
        baseline = result.points[0].mean
        assert len(result.points) == 3
        assert all(p.mean < 3.0 * baseline for p in result.points)


class TestInitialProbabilityAblation:
    def test_varied_initial_probability_stays_in_band(self):
        """Section 6: initial probabilities other than 1/2 do not
        significantly hurt performance.  (Empirically, on dense G(n, 1/2)
        graphs a *lower* start is often slightly faster, because p=1/2
        causes beep collisions in the first rounds; the feedback recovers
        either way.)"""
        result = initial_probability_ablation(
            initial_probabilities=(0.5, 0.01),
            n=60,
            trials=8,
            master_seed=82,
        )
        default = result.points[0].mean
        tiny = result.points[1].mean
        assert default / 3.0 < tiny < default * 3.0
        assert result.points[1].x == pytest.approx(0.01)


class TestFaultAblation:
    def test_grid_of_combinations(self):
        result = fault_ablation(
            loss_probabilities=(0.0, 0.1),
            spurious_probabilities=(0.0, 0.1),
            n=40,
            trials=4,
            master_seed=83,
        )
        assert len(result.points) == 4
        combos = {(p.extra["loss"], p.extra["spurious"]) for p in result.points}
        assert combos == {(0.0, 0.0), (0.0, 0.1), (0.1, 0.0), (0.1, 0.1)}

    def test_all_runs_terminate_with_valid_mis(self):
        # run_trials validates internally; reaching here is the assertion.
        result = fault_ablation(
            loss_probabilities=(0.2,),
            spurious_probabilities=(0.2,),
            n=30,
            trials=4,
            master_seed=84,
        )
        assert result.points[0].mean >= 1.0
