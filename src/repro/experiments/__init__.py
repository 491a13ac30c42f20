"""The experiment harness: trial runners and per-figure drivers.

- :mod:`~repro.experiments.records` — result dataclasses with JSON/CSV
  export.
- :mod:`~repro.experiments.runner` — seeded multi-trial execution of any
  registered algorithm on any graph factory.
- :mod:`~repro.experiments.figures` — the Figure 3 and Figure 5 drivers.
- :mod:`~repro.experiments.lower_bound` — the Theorem 1 experiment on the
  disjoint-clique family.
- :mod:`~repro.experiments.ablations` — the Section 6 robustness sweeps.
- :mod:`~repro.experiments.tables` — ASCII table rendering for reports.
"""

from repro.experiments.records import (
    ExperimentResult,
    SeriesPoint,
    results_to_csv,
    results_to_json,
)
from repro.experiments.runner import TrialOutcome, run_trials
from repro.experiments.figures import (
    figure1_example,
    figure3_series,
    figure5_series,
)
from repro.experiments.bio_ablation import inhibition_strength_ablation
from repro.experiments.lower_bound import theorem1_experiment
from repro.experiments.sizes import mis_size_experiment
from repro.experiments.ablations import (
    factor_ablation,
    fault_ablation,
    initial_probability_ablation,
)
from repro.experiments.tables import format_table

__all__ = [
    "ExperimentResult",
    "SeriesPoint",
    "TrialOutcome",
    "inhibition_strength_ablation",
    "factor_ablation",
    "fault_ablation",
    "figure1_example",
    "figure3_series",
    "figure5_series",
    "format_table",
    "initial_probability_ablation",
    "mis_size_experiment",
    "results_to_csv",
    "results_to_json",
    "run_trials",
    "theorem1_experiment",
]
