"""The comparison harness: grid wiring, caching, and a golden table.

The golden snapshot pins the full rendered table of a small
deterministic grid — every quantity (rounds, messages, bits) of every
algorithm on both engines.  It is byte-stable because the fleet cells
run the counter fabric and the reference cells ``random.Random``, both
platform-independent; any drift in kernels, accounting or seed
derivation shows up as a table diff.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.compare import (
    DEFAULT_ALGORITHMS,
    comparison_csv,
    comparison_experiment,
)
from repro.sweep.spec import FLEET_RULES

GOLDEN = Path(__file__).parent / "golden_compare_table.txt"


def small_comparison(**overrides):
    defaults = dict(
        algorithms=DEFAULT_ALGORITHMS + ("greedy",),
        sizes=(12, 20),
        edge_probability=0.4,
        trials=6,
        master_seed=5,
    )
    defaults.update(overrides)
    return comparison_experiment(**defaults)


class TestComparisonExperiment:
    def test_grid_shape_and_series(self):
        result = small_comparison()
        names = result.rounds.series_names()
        assert names == list(DEFAULT_ALGORITHMS + ("greedy",))
        for experiment in (result.rounds, result.bits_per_node):
            assert len(experiment.points) == len(names) * 2
            for point in experiment.points:
                assert point.trials == 6

    def test_default_panel_is_all_fleet(self):
        """The paper panel never falls back to the per-node loop."""
        assert set(DEFAULT_ALGORITHMS) <= set(FLEET_RULES)

    def test_message_passing_beats_beeping_on_rounds_not_bits(self):
        """The paper's qualitative story must hold in the summary: Luby
        terminates in fewer rounds but pays more bits per message."""
        result = small_comparison()
        by_series = {
            (p.series, p.x): p for p in result.rounds.points
        }
        for n in (12.0, 20.0):
            assert (
                by_series[("luby-permutation", n)].mean
                < by_series[("feedback", n)].mean
            )
            assert (
                by_series[("luby-permutation", n)].extra["bits_per_message"]
                > by_series[("feedback", n)].extra["bits_per_message"]
            )

    def test_warm_cache_rerun_is_free_and_identical(self, tmp_path):
        first = small_comparison(cache_dir=tmp_path)
        assert first.rounds.report.shards_executed > 0
        # One sweep feeds both axes, so both records carry its report.
        assert first.bits_per_node.report is first.rounds.report
        second = small_comparison(cache_dir=tmp_path)
        assert second.rounds.report.shards_executed == 0
        assert (
            second.rounds.report.shards_cached
            == second.rounds.report.shards_total
        )
        assert comparison_csv(second) == comparison_csv(first)

    def test_multi_family_labels(self):
        result = small_comparison(
            algorithms=("feedback", "metivier"),
            families=("gnp", "grid"),
            sizes=(4,),
        )
        assert result.rounds.series_names() == [
            "feedback/gnp", "metivier/gnp", "feedback/grid", "metivier/grid",
        ]
        # grid reads sizes as side lengths: x is the vertex count.
        assert {p.x for p in result.rounds.points} == {4.0, 16.0}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="algorithm"):
            small_comparison(algorithms=())
        with pytest.raises(ValueError, match="size"):
            small_comparison(sizes=())
        with pytest.raises(ValueError, match="family"):
            small_comparison(families=("torus",))
        with pytest.raises(ValueError, match="engine"):
            small_comparison(engine="gpu")

    def test_csv_lists_both_quantities(self):
        text = comparison_csv(small_comparison())
        lines = text.strip().splitlines()
        assert lines[0] == "series,x,quantity,mean,std,trials"
        quantities = {line.split(",")[2] for line in lines[1:]}
        assert quantities == {"rounds", "bits_per_node"}


def test_golden_comparison_table():
    """The rendered table matches the committed snapshot byte for byte.

    Regenerate (after an intentional semantics change) with::

        PYTHONPATH=src python -c "
        from tests.experiments.test_compare import small_comparison, GOLDEN
        GOLDEN.write_text(small_comparison().table() + '\\n')"
    """
    expected = GOLDEN.read_text(encoding="utf-8")
    assert small_comparison().table() + "\n" == expected
