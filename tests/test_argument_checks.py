"""Argument checks at the package's entry points.

An out-of-range argument raises ``ValueError`` (or ``TypeError`` for the
wrong kind of rule) naming the problem, before any work starts; a run
that outlives its round or step budget stops with ``RuntimeError``
instead of looping.  Each case is a check no other test reaches.
"""

from random import Random

import pytest

from repro.algorithms.local_minimum import LocalMinimumIDMIS
from repro.algorithms.luby import LubyMIS
from repro.algorithms.metivier import MetivierMIS
from repro.analysis.theory import clique_progress_upper_bound
from repro.beeping.faults import ChurnSchedule, FaultModel
from repro.beeping import wakeup
from repro.bio.stochastic import StochasticSOPModel
from repro.core.policy import ExponentFeedbackNode
from repro.engine.applications import (
    ApplicationArmadaSimulator,
    EngineMIS,
)
from repro.engine.fleet import ArmadaSimulator
from repro.engine.messages import MessageArmadaSimulator
from repro.engine.rules import FeedbackRule
from repro.experiments.paper import PaperSettings
from repro.experiments.robustness import robustness_grid
from repro.experiments.runner import run_trials
from repro.graphs.random_graphs import random_geometric_graph
from repro.graphs.structured import (
    complete_graph,
    grid_graph,
    hex_lattice_graph,
    path_graph,
    star_graph,
)
from repro.sweep.aggregate import summarize

GRAPH = path_graph(4)

CASES = {
    "star-negative-leaves": (
        lambda: star_graph(-1), ValueError, "leaves must be >= 0"
    ),
    "grid-negative-rows": (
        lambda: grid_graph(-1, 3), ValueError, "grid dimensions"
    ),
    "hex-negative-cols": (
        lambda: hex_lattice_graph(2, -1), ValueError, "lattice dimensions"
    ),
    "geometric-negative-n": (
        lambda: random_geometric_graph(-1, 0.1, Random(0)),
        ValueError, "n must be >= 0",
    ),
    "clique-bound-p-above-one": (
        lambda: clique_progress_upper_bound(3, 1.5), ValueError, "p must be"
    ),
    "summarize-empty": (lambda: summarize([]), ValueError, "empty"),
    "robustness-no-spurious-levels": (
        lambda: robustness_grid(
            loss_probabilities=[0.1], spurious_probabilities=[]
        ),
        ValueError, "at least one loss and one spurious",
    ),
    "trial-range-reversed": (
        lambda: run_trials(
            lambda: LubyMIS(), lambda rng: GRAPH, trials=4, master_seed=1,
            trial_range=(3, 2),
        ),
        ValueError, "trial_range",
    ),
    "paper-zero-trials": (
        lambda: PaperSettings(trials=0), ValueError, "trials must be >= 1"
    ),
    "armada-negative-frontier": (
        lambda: ArmadaSimulator([GRAPH], frontier_entries=-1),
        ValueError, "frontier_entries",
    ),
    "message-armada-probability-rule": (
        lambda: MessageArmadaSimulator([GRAPH]).run_armada(
            FeedbackRule(), [[1]]
        ),
        TypeError, "need a MessageRule",
    ),
    "application-armada-probability-rule": (
        lambda: ApplicationArmadaSimulator([GRAPH], FeedbackRule()),
        TypeError, "need an ApplicationRule",
    ),
    "engine-mis-faults": (
        lambda: EngineMIS(1).run(
            GRAPH, Random(0), faults=FaultModel(beep_loss_probability=0.5)
        ),
        ValueError, "fault injection",
    ),
    "churn-vertex-joins-twice": (
        lambda: ChurnSchedule.from_events(
            [("join", 1, 4, ()), ("join", 3, 4, ())]
        ),
        ValueError, "joins more than once",
    ),
    "churn-join-negative-neighbour": (
        lambda: ChurnSchedule.from_events([("join", 1, 4, (-1,))]),
        ValueError, "join neighbour must be >= 0",
    ),
    "churn-join-neighbour-outside-universe": (
        lambda: ChurnSchedule.from_events(
            [("join", 1, 4, (9,))]
        ).universe_graph(GRAPH),
        ValueError, "outside the 5-vertex universe",
    ),
    "churn-event-outside-engine-universe": (
        lambda: ChurnSchedule.from_events(
            [("leave", 1, 7)]
        ).round_masks(4),
        ValueError, "outside the 4-vertex universe",
    ),
    "local-minimum-round-budget": (
        lambda: LocalMinimumIDMIS(ids=list(range(8))).run(
            path_graph(8), Random(0), max_rounds=1
        ),
        RuntimeError, "exceeded 1 rounds",
    ),
    "metivier-round-budget": (
        lambda: MetivierMIS().run(grid_graph(6, 6), Random(0), max_rounds=1),
        RuntimeError, "exceeded 1 rounds",
    ),
    "luby-round-budget": (
        lambda: LubyMIS().run(grid_graph(6, 6), Random(0), max_rounds=1),
        RuntimeError, "exceeded 1 rounds",
    ),
    "stochastic-sop-step-budget": (
        lambda: StochasticSOPModel(max_steps=1).run(
            complete_graph(5), Random(0)
        ),
        RuntimeError, "exceeded 1 steps",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_argument_is_named(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call()


def test_wakeup_round_budget(monkeypatch):
    """The wake-up loop stops at its fixed round budget, here shrunk."""
    monkeypatch.setattr(wakeup, "DEFAULT_MAX_ROUNDS", 1)
    simulation = wakeup.WakeupSimulation(
        complete_graph(30), lambda v: ExponentFeedbackNode(), [0] * 30,
        Random(0),
    )
    with pytest.raises(RuntimeError, match="exceeded 1 rounds"):
        simulation.run()
