"""Tests for the algorithm registry and the shared MISRun/MISAlgorithm API."""

from random import Random

import pytest

from repro.algorithms.base import MISRun
from repro.algorithms.registry import available_algorithms, make_algorithm
from repro.graphs.structured import path_graph
from repro.graphs.validation import MISValidationError


class TestRegistry:
    def test_expected_names_present(self):
        names = available_algorithms()
        for expected in (
            "feedback",
            "afek-sweep",
            "afek-global",
            "luby-permutation",
            "luby-probability",
            "metivier",
            "greedy",
            "greedy-fixed",
        ):
            assert expected in names

    def test_names_sorted(self):
        names = available_algorithms()
        assert names == sorted(names)

    def test_factory_name_matches_key(self):
        for name in available_algorithms():
            assert make_algorithm(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="available"):
            make_algorithm("nope")

    def test_factories_return_fresh_instances(self):
        assert make_algorithm("feedback") is not make_algorithm("feedback")


class TestMISRun:
    def _run(self, mis):
        return MISRun(
            algorithm="test",
            graph=path_graph(4),
            mis=set(mis),
            rounds=1,
        )

    def test_verify_accepts_valid(self):
        assert self._run({0, 2}).verify() == {0, 2}

    def test_verify_rejects_invalid(self):
        with pytest.raises(MISValidationError):
            self._run({0, 1}).verify()

    def test_unrecovered_run_is_checked_for_independence_only(self):
        # A round cap cut the repair short: {0} covers nothing past 1.
        run = self._run({0})
        run.recovered = False
        assert run.verify() == {0}
        run.mis = {0, 1}
        with pytest.raises(AssertionError, match="edge \\(0, 1\\)"):
            run.verify()

    def test_unrecovered_run_raises_the_contract_error(self):
        run = self._run({0, 1})
        run.recovered = False
        with pytest.raises(MISValidationError, match="not independent"):
            run.verify()
        run.mis, run.absent = {1}, {1}
        with pytest.raises(MISValidationError, match="absent vertex 1"):
            run.verify()

    def test_mis_size(self):
        assert self._run({1, 3}).mis_size == 2

    def test_mean_beeps_default_zero(self):
        assert self._run({0, 2}).mean_beeps_per_node == 0.0

    def test_repr_of_algorithm(self):
        algorithm = make_algorithm("feedback")
        assert "feedback" in repr(algorithm)


class TestUniformBehaviour:
    """Every registered algorithm must satisfy the same contract."""

    @pytest.mark.parametrize("name", [
        "feedback",
        "afek-sweep",
        "afek-global",
        "luby-permutation",
        "luby-probability",
        "metivier",
        "greedy",
        "greedy-fixed",
    ])
    def test_contract(self, name, random50):
        algorithm = make_algorithm(name)
        run = algorithm.run(random50, Random(99))
        assert run.algorithm == name
        assert run.rounds >= 1
        run.verify()


class TestBeepAccounting:
    """A beep is one 1-bit message per incident channel, counted in
    Python ints (the shard store's rows accept nothing else)."""

    @pytest.mark.parametrize("name", ["feedback", "afek-sweep", "afek-global"])
    def test_scheduler_runs(self, name, random50):
        run = make_algorithm(name).run(random50, Random(7))
        expected = sum(
            beeps * random50.degree(v)
            for v, beeps in enumerate(run.beeps_by_node)
        )
        assert type(run.bits) is int and type(run.messages) is int
        assert run.bits == run.messages == expected > 0
