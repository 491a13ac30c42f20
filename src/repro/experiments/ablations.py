"""Robustness ablations (the Section 6 claims as experiments).

Three sweeps, each varying one thing the paper says should not matter much:

- :func:`factor_ablation` — the up/down feedback factors (paper default:
  exactly halve / double);
- :func:`initial_probability_ablation` — the common initial probability
  (paper default ``1/2``; must stay bounded away from 0);
- :func:`fault_ablation` — beep loss and spurious beeps on the feedback
  observation channel (beyond the paper: the "robust in practice" claim
  under an explicitly noisy radio).

Factor and initial-probability sweeps run on the vectorised engine.  The
fault sweep here keeps the per-node reference engine (fresh graph per
trial, per-edge loss draws); the cached, fleet-vectorised robustness grid
lives in :mod:`repro.experiments.robustness` and is what the
``repro robustness`` CLI command drives.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.algorithms.feedback import FeedbackMIS
from repro.beeping.faults import FaultModel
from repro.beeping.rng import derive_seed
from repro.engine.batch import run_batch
from repro.engine.rules import FeedbackRule
from repro.experiments.records import ExperimentResult, SeriesPoint
from repro.experiments.runner import run_trials
from repro.graphs.random_graphs import gnp_random_graph
from repro.beeping.rng import spawn_rng


def factor_ablation(
    factor_pairs: Sequence[Tuple[float, float]] = (
        (0.5, 2.0),
        (0.4, 2.5),
        (0.6, 1.67),
        (0.3, 3.0),
        (0.7, 1.3),
    ),
    n: int = 300,
    edge_probability: float = 0.5,
    trials: int = 30,
    master_seed: int = 1601,
) -> ExperimentResult:
    """Mean rounds of the feedback algorithm for varied (down, up) factors.

    The first pair is the paper's exact algorithm; the others perturb it.
    The series are named ``down=<d>,up=<u>`` with x = the pair index.
    """
    graph = gnp_random_graph(
        n, edge_probability, spawn_rng(master_seed, 0xAB1)
    )
    points: List[SeriesPoint] = []
    for index, (down, up) in enumerate(factor_pairs):
        batch = run_batch(
            graph,
            lambda d=down, u=up: FeedbackRule(
                decrease_factor=d, increase_factor=u
            ),
            trials,
            derive_seed(master_seed, index),
            validate=True,
        )
        points.append(
            SeriesPoint(
                series=f"down={down},up={up}",
                x=float(index),
                mean=batch.mean_rounds,
                std=batch.std_rounds,
                trials=trials,
                extra={"down": down, "up": up},
            )
        )
    return ExperimentResult(
        experiment="factor-ablation",
        points=points,
        master_seed=master_seed,
        parameters={
            "n": n,
            "edge_probability": edge_probability,
            "trials": trials,
        },
    )


def initial_probability_ablation(
    initial_probabilities: Sequence[float] = (0.5, 0.25, 0.1, 0.05, 0.01),
    n: int = 300,
    edge_probability: float = 0.5,
    trials: int = 30,
    master_seed: int = 1602,
) -> ExperimentResult:
    """Mean rounds for varied common initial probabilities.

    The paper allows initial values below ½ "as long as sufficiently many
    of them are bounded away from zero"; very small initial probabilities
    cost extra rounds while the feedback drives them back up.
    """
    graph = gnp_random_graph(
        n, edge_probability, spawn_rng(master_seed, 0xAB2)
    )
    points: List[SeriesPoint] = []
    for index, p0 in enumerate(initial_probabilities):
        batch = run_batch(
            graph,
            lambda p=p0: FeedbackRule(initial_probability=p),
            trials,
            derive_seed(master_seed, index),
            validate=True,
        )
        points.append(
            SeriesPoint(
                series=f"p0={p0}",
                x=float(p0),
                mean=batch.mean_rounds,
                std=batch.std_rounds,
                trials=trials,
            )
        )
    return ExperimentResult(
        experiment="initial-probability-ablation",
        points=points,
        master_seed=master_seed,
        parameters={
            "n": n,
            "edge_probability": edge_probability,
            "trials": trials,
        },
    )


def fault_ablation(
    loss_probabilities: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    spurious_probabilities: Sequence[float] = (0.0, 0.05, 0.1),
    n: int = 100,
    edge_probability: float = 0.5,
    trials: int = 15,
    master_seed: int = 1603,
) -> ExperimentResult:
    """Mean rounds of the feedback algorithm under a noisy feedback channel.

    Every (loss, spurious) combination is one series point; the output MIS
    is validated in every trial (noise may slow the algorithm but can never
    corrupt the result — the second exchange is reliable by design).
    """
    from repro.sweep.aggregate import summarize

    points: List[SeriesPoint] = []
    index = 0
    for loss in loss_probabilities:
        for spurious in spurious_probabilities:
            faults = FaultModel(
                beep_loss_probability=loss,
                spurious_beep_probability=spurious,
            )
            outcomes = run_trials(
                FeedbackMIS,
                lambda rng, size=n: gnp_random_graph(
                    size, edge_probability, rng
                ),
                trials,
                derive_seed(master_seed, index),
                faults=faults,
            )
            mean, std = summarize([o.rounds for o in outcomes])
            points.append(
                SeriesPoint(
                    series=f"loss={loss},spurious={spurious}",
                    x=float(index),
                    mean=mean,
                    std=std,
                    trials=trials,
                    extra={"loss": loss, "spurious": spurious},
                )
            )
            index += 1
    return ExperimentResult(
        experiment="fault-ablation",
        points=points,
        master_seed=master_seed,
        parameters={
            "n": n,
            "edge_probability": edge_probability,
            "trials": trials,
        },
    )
