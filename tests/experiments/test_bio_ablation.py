"""Tests for the Notch–Delta inhibition-strength ablation."""

from random import Random
from typing import List

import pytest

from repro.bio.notch_delta import CollierParameters, NotchDeltaModel
from repro.bio.sop import analyze_sop_pattern, select_sops_by_delta
from repro.experiments.bio_ablation import inhibition_strength_ablation
from repro.experiments.records import ExperimentResult, SeriesPoint
from repro.graphs.structured import hex_lattice_graph


class TestInhibitionAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return inhibition_strength_ablation(
            strengths=(5.0, 100.0),
            rows=6,
            cols=6,
            trials=2,
            t_end=80.0,
            master_seed=7,
        )

    def test_one_point_per_strength(self, result):
        assert [p.x for p in result.points] == [5.0, 100.0]

    def test_strong_inhibition_forms_mis_pattern(self, result):
        strong = result.points[-1]
        assert strong.extra["mis_fraction"] == 1.0
        assert strong.mean > 0.5  # clean bimodal separation

    def test_weak_inhibition_fails(self, result):
        weak = result.points[0]
        assert weak.extra["mis_fraction"] == 0.0
        assert weak.mean < 0.1

    def test_threshold_direction(self, result):
        """Pattern quality increases with inhibition strength."""
        separations = [p.mean for p in result.points]
        assert separations == sorted(separations)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_must_be_positive(self, trials):
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            inhibition_strength_ablation(trials=trials)

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf")])
    def test_non_finite_t_end_rejected(self, t_end):
        with pytest.raises(ValueError, match="nan|inf"):
            inhibition_strength_ablation(t_end=t_end)

    def test_non_finite_strength_rejected(self):
        with pytest.raises(ValueError, match="b must be finite"):
            inhibition_strength_ablation(strengths=(1.0, float("nan")))


def per_run_ablation(
    strengths, rows, cols, trials, t_end, master_seed
) -> ExperimentResult:
    """The one-``model.run``-per-trial ablation the stacked integration
    replaced, frozen as the bit-identity oracle."""
    graph = hex_lattice_graph(rows, cols)
    points: List[SeriesPoint] = []
    for index, strength in enumerate(strengths):
        parameters = CollierParameters(b=strength)
        model = NotchDeltaModel(graph, parameters)
        separations: List[float] = []
        sop_counts: List[int] = []
        mis_hits = 0
        for trial in range(trials):
            result = model.run(
                Random(master_seed * 1000 + index * 100 + trial),
                t_end=t_end,
            )
            sops = select_sops_by_delta(result.final_delta)
            pattern = analyze_sop_pattern(graph, sops, result.final_delta)
            separations.append(pattern.delta_separation)
            sop_counts.append(pattern.num_sops)
            if pattern.is_mis:
                mis_hits += 1
        mean_separation = sum(separations) / trials
        if trials > 1:
            variance = sum(
                (s - mean_separation) ** 2 for s in separations
            ) / (trials - 1)
            std = variance ** 0.5
        else:
            std = 0.0
        points.append(
            SeriesPoint(
                series="delta-separation",
                x=float(strength),
                mean=mean_separation,
                std=std,
                trials=trials,
                extra={
                    "mean_sops": sum(sop_counts) / trials,
                    "mis_fraction": mis_hits / trials,
                },
            )
        )
    return ExperimentResult(
        experiment="bio-inhibition-ablation",
        points=points,
        master_seed=master_seed,
        parameters={
            "rows": rows,
            "cols": cols,
            "trials": trials,
            "t_end": t_end,
        },
    )


class TestStackedIntegrationOracle:
    """The stacked ablation equals the per-run loop exactly (``==``)."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            # The paper pipeline's bio scale.
            dict(strengths=(1.0, 100.0), rows=5, cols=5, trials=3,
                 t_end=60.0, master_seed=1900),
            dict(strengths=(1.0, 100.0), rows=5, cols=5, trials=1,
                 t_end=60.0, master_seed=1900),
            # A single strength.
            dict(strengths=(100.0,), rows=4, cols=4, trials=3,
                 t_end=30.0, master_seed=3),
            # rows != cols, t_end not a multiple of dt.
            dict(strengths=(5.0, 20.0, 500.0), rows=3, cols=6, trials=3,
                 t_end=23.37, master_seed=11),
        ],
        ids=["paper-scale", "one-trial", "one-strength", "rect-odd-t-end"],
    )
    def test_equals_per_run_loop(self, kwargs):
        assert inhibition_strength_ablation(**kwargs) == per_run_ablation(
            **kwargs
        )
