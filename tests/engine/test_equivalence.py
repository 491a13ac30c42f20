"""Cross-validation of the reference and vectorised engines.

The two engines consume randomness differently (Python Random per node vs
one numpy generator per fleet trial), so agreement is checked at two levels:

1. **Exact agreement on degenerate inputs** where randomness is irrelevant
   (empty graphs, forced outcomes).
2. **Distributional agreement** on random graphs: mean round counts and
   mean beeps per node over independent trials must match within a tolerance
   that the trial count makes sound.
"""

from random import Random

import pytest

from repro.algorithms.afek_sweep import AfekSweepMIS
from repro.algorithms.feedback import FeedbackMIS
from repro.engine.batch import run_batch
from repro.engine.fleet import FleetSimulator
from repro.engine.rules import FeedbackRule, SweepRule
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import empty_graph, grid_graph


class TestExactAgreement:
    def test_isolated_vertices(self):
        graph = empty_graph(7)
        reference = FeedbackMIS().run(graph, Random(1))
        vectorised = FleetSimulator(graph).run_fleet(
            FeedbackRule(), [1]
        ).trial_run(0)
        # Both must finish with every vertex joining; round counts depend
        # only on per-vertex geometric(1/2) draws so compare sets exactly.
        assert reference.mis == vectorised.mis == set(range(7))

    def test_two_cliques_one_winner_each(self):
        from repro.graphs.cliques import disjoint_cliques

        graph = disjoint_cliques([3, 3])
        for seed in range(5):
            reference = FeedbackMIS().run(graph, Random(seed))
            vectorised = FleetSimulator(graph).run_fleet(
                FeedbackRule(), [seed], validate=True
            ).trial_run(0)
            assert len(reference.mis) == len(vectorised.mis) == 2


class TestDistributionalAgreement:
    TRIALS = 60

    def _reference_means(self, graph, algorithm_factory):
        rounds = []
        beeps = []
        for t in range(self.TRIALS):
            run = algorithm_factory().run(graph, Random(10_000 + t))
            rounds.append(run.rounds)
            beeps.append(run.mean_beeps_per_node)
        return (
            sum(rounds) / len(rounds),
            sum(beeps) / len(beeps),
        )

    def _vectorised_means(self, graph, rule_factory):
        batch = run_batch(graph, rule_factory, self.TRIALS, master_seed=77)
        return batch.mean_rounds, batch.mean_beeps_per_node

    @pytest.mark.parametrize(
        "algorithm_factory,rule_factory",
        [(FeedbackMIS, FeedbackRule), (AfekSweepMIS, SweepRule)],
    )
    def test_random_graph_agreement(self, algorithm_factory, rule_factory):
        graph = gnp_random_graph(40, 0.5, Random(55))
        ref_rounds, ref_beeps = self._reference_means(graph, algorithm_factory)
        vec_rounds, vec_beeps = self._vectorised_means(graph, rule_factory)
        # Means over 60 trials of a distribution with std of a few rounds:
        # 35% relative tolerance is ~4 standard errors.
        assert vec_rounds == pytest.approx(ref_rounds, rel=0.35)
        assert vec_beeps == pytest.approx(ref_beeps, rel=0.35, abs=0.5)

    def test_grid_agreement(self):
        graph = grid_graph(6, 6)
        ref_rounds, ref_beeps = self._reference_means(graph, FeedbackMIS)
        vec_rounds, vec_beeps = self._vectorised_means(graph, FeedbackRule)
        assert vec_rounds == pytest.approx(ref_rounds, rel=0.35)
        assert vec_beeps == pytest.approx(ref_beeps, rel=0.35, abs=0.5)

    def test_mis_size_distribution_agreement(self):
        graph = gnp_random_graph(40, 0.5, Random(56))
        reference_sizes = [
            len(FeedbackMIS().run(graph, Random(20_000 + t)).mis)
            for t in range(self.TRIALS)
        ]
        run = FleetSimulator(graph).run_fleet(
            FeedbackRule(), [30_000 + t for t in range(self.TRIALS)]
        )
        vectorised_sizes = [
            len(run.mis_set(t)) for t in range(self.TRIALS)
        ]
        ref_mean = sum(reference_sizes) / self.TRIALS
        vec_mean = sum(vectorised_sizes) / self.TRIALS
        assert vec_mean == pytest.approx(ref_mean, rel=0.25)
