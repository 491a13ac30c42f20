"""Tests for the MIS-size experiment."""

import pytest

from repro.experiments.sizes import DEFAULT_ALGORITHMS, mis_size_experiment


class TestMisSizeExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return mis_size_experiment(n=24, trials=6, master_seed=5)

    def test_one_point_per_algorithm_plus_optimum(self, result):
        names = result.series_names()
        assert "feedback" in names
        assert "optimum" in names
        assert len(result.points) == 5

    def test_optimum_dominates(self, result):
        optimum = next(p for p in result.points if p.series == "optimum")
        for point in result.points:
            assert point.mean <= optimum.mean + 1e-9

    def test_ratios_in_unit_interval(self, result):
        for point in result.points:
            ratio = point.extra.get("optimum_ratio")
            assert ratio is not None
            assert 0.0 < ratio <= 1.0

    def test_ratios_reasonably_high(self, result):
        """Any MIS on G(n, 0.3) lands within a constant of the optimum."""
        for point in result.points:
            assert point.extra["optimum_ratio"] > 0.5

    def test_large_n_skips_optimum(self):
        result = mis_size_experiment(n=80, trials=2, master_seed=6)
        assert result.parameters["include_optimum"] is False
        assert result.series_names() == list(DEFAULT_ALGORITHMS)
        assert all(point.extra == {} for point in result.points)

    def test_jobs_and_cache_do_not_change_results(self, tmp_path):
        args = dict(n=18, trials=4, master_seed=8)
        plain = mis_size_experiment(**args)
        sharded = mis_size_experiment(**args, jobs=2, cache_dir=tmp_path)
        assert sharded.points == plain.points
        warm = mis_size_experiment(**args, cache_dir=tmp_path)
        assert warm.points == plain.points


def test_optimum_is_solved_on_each_trials_run_graph(monkeypatch):
    """The optimum redraw builds, trial by trial, the very graph every
    algorithm ran on, so each size / optimum ratio is paired."""
    from repro.experiments import sizes
    from repro.experiments.runner import run_trials
    from repro.sweep import orchestrator

    ran = {}

    def recording(algorithm_factory, graph_factory, trials, master_seed,
                  trial_range, **kwargs):
        order = iter(range(*trial_range))

        def drawing(rng):
            graph = graph_factory(rng)
            ran.setdefault(next(order), []).append(graph)
            return graph

        return run_trials(
            algorithm_factory, drawing, trials, master_seed,
            trial_range=trial_range, **kwargs,
        )

    solved = []
    solve = sizes.maximum_independent_set

    def solving(graph):
        solved.append(graph)
        return solve(graph)

    monkeypatch.setattr(orchestrator, "run_trials", recording)
    monkeypatch.setattr(sizes, "maximum_independent_set", solving)
    mis_size_experiment(n=18, trials=5, master_seed=9)
    assert sorted(ran) == list(range(5))
    assert len(solved) == 5
    assert any(graph.num_edges for graph in solved)
    for trial, graph in enumerate(solved):
        assert len(ran[trial]) == len(DEFAULT_ALGORITHMS)
        for drawn in ran[trial]:
            assert list(drawn.edges()) == list(graph.edges()), trial
