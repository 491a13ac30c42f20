"""End-to-end integration: the full pipeline in one test module.

Generate workloads → run every algorithm → validate → aggregate →
serialise → reload → analyse.  This is the "does the whole library hang
together" test, complementing the per-module suites.
"""

import json
import math
from random import Random

import pytest

from repro import (
    FeedbackMIS,
    available_algorithms,
    gnp_random_graph,
    make_algorithm,
)
from repro.analysis.regression import fit_log2
from repro.analysis.statistics import summarize
from repro.experiments.records import (
    ExperimentResult,
    SeriesPoint,
    results_from_json,
    results_to_json,
)
from repro.graphs.cliques import theorem1_family
from repro.graphs.random_graphs import (
    random_geometric_graph,
    watts_strogatz_graph,
)
from repro.graphs.structured import (
    complete_graph,
    cycle_graph,
    grid_graph,
    hex_lattice_graph,
    path_graph,
    star_graph,
)

#: One n≈20 instance per graph family, each drawn from ``Random(3)``;
#: the sparse G(n, p) and the geometric graph have mean degree ≈8.
SMALL_FAMILIES = {
    "gnp-half": lambda rng: gnp_random_graph(20, 0.5, rng),
    "gnp-sparse": lambda rng: gnp_random_graph(20, 8 / 19, rng),
    "grid": lambda rng: grid_graph(4, 4),
    "hex": lambda rng: hex_lattice_graph(4, 4),
    "geometric": lambda rng: random_geometric_graph(
        20, math.sqrt(8 / (math.pi * 20)), rng
    ),
    "tree": lambda rng: path_graph(20),
    "hub": lambda rng: star_graph(19),
    "small-world": lambda rng: watts_strogatz_graph(20, 6, 0.1, rng),
    "clique": lambda rng: complete_graph(20),
    "ring": lambda rng: cycle_graph(20),
    "theorem1": lambda rng: theorem1_family(3),
}


def test_full_pipeline(tmp_path):
    """Workload → runs → stats → records → JSON → fit."""
    sizes = (20, 40, 80)
    points = []
    for size_index, n in enumerate(sizes):
        rounds = []
        for trial in range(6):
            graph = gnp_random_graph(n, 0.5, Random(size_index * 100 + trial))
            run = FeedbackMIS().run(graph, Random(trial))
            run.verify()
            rounds.append(run.rounds)
        stats = summarize(rounds)
        points.append(
            SeriesPoint("feedback", float(n), stats.mean, stats.std, 6)
        )
    result = ExperimentResult("pipeline", points, master_seed=0)

    # Serialise and reload.
    path = tmp_path / "result.json"
    path.write_text(results_to_json(result))
    restored = results_from_json(path.read_text())
    assert restored.points == result.points

    # Analyse.
    fit = fit_log2(restored.xs("feedback"), restored.means("feedback"))
    assert 0.5 < fit.slope < 6.0


@pytest.mark.parametrize("family", sorted(SMALL_FAMILIES))
def test_every_algorithm_on_every_workload_small(family):
    """The full compatibility matrix at tiny scale, one family a case."""
    graph = SMALL_FAMILIES[family](Random(3))
    for name in available_algorithms():
        run = make_algorithm(name).run(graph, Random(4))
        run.verify()


@pytest.mark.parametrize("family", sorted(SMALL_FAMILIES))
def test_small_family_size_is_near_twenty(family):
    graph = SMALL_FAMILIES[family](Random(3))
    # Structured families round n to their shape, but stay near 20.
    assert 15 <= graph.num_vertices <= 25
    assert graph.num_edges >= graph.num_vertices // 2


@pytest.mark.parametrize("family", sorted(SMALL_FAMILIES))
def test_small_family_is_deterministic_given_rng(family):
    factory = SMALL_FAMILIES[family]
    assert factory(Random(3)) == factory(Random(3))


def test_registry_and_cli_agree(capsys):
    from repro.cli import main

    main(["list"])
    listed = capsys.readouterr().out.split()
    assert listed == available_algorithms()


def test_json_schema_stability():
    """The serialised record schema is part of the public contract."""
    result = ExperimentResult(
        "demo", [SeriesPoint("s", 1.0, 2.0, 0.5, 3)], master_seed=9
    )
    payload = json.loads(results_to_json(result))
    assert set(payload) == {
        "experiment",
        "master_seed",
        "parameters",
        "points",
    }
    assert set(payload["points"][0]) == {
        "series",
        "x",
        "mean",
        "std",
        "trials",
        "extra",
    }
