"""Experiment harness: scenarios, case studies, and Monte-Carlo drivers.

- :mod:`~repro.scenarios.scenario` — the :class:`Scenario` bundle
  (topology + monitors + paths + ground truth + thresholds) and its
  builders;
- :mod:`~repro.scenarios.simple_network` — the paper's Section V-B case
  studies on the Fig. 1 network (Figs. 4-6);
- :mod:`~repro.scenarios.experiments` — success-probability sweeps
  (Figs. 7-8);
- :mod:`~repro.scenarios.detection_experiments` — detection ratios
  (Fig. 9);
- :mod:`~repro.scenarios.montecarlo` — seeded trial running and binning;
- :mod:`~repro.scenarios.streaming` — multi-epoch measurement campaigns
  with detection latency, blame tallies and optional path churn.
"""

from repro.scenarios.defense_experiments import (
    path_selection_defense_experiment,
    robust_recovery_experiment,
)
from repro.scenarios.detection_experiments import detection_ratio_experiment
from repro.scenarios.experiments import (
    single_attacker_sweep,
    success_probability_sweep,
)
from repro.scenarios.loss_network import (
    loss_chosen_victim_case_study,
    paper_fig1_loss_scenario,
)
from repro.scenarios.montecarlo import binned_rate, run_trials
from repro.scenarios.scenario import Scenario
from repro.scenarios.sensitivity import knowledge_sensitivity_experiment
from repro.scenarios.serialization import (
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
)
from repro.scenarios.simple_network import (
    chosen_victim_case_study,
    max_damage_case_study,
    naive_baseline_case_study,
    obfuscation_case_study,
    paper_fig1_scenario,
)
from repro.scenarios.streaming import (
    ChurnEvent,
    EpochResult,
    StreamingCampaign,
    StreamResult,
    random_churn_schedule,
)

__all__ = [
    "Scenario",
    "binned_rate",
    "run_trials",
    "chosen_victim_case_study",
    "max_damage_case_study",
    "naive_baseline_case_study",
    "obfuscation_case_study",
    "paper_fig1_scenario",
    "single_attacker_sweep",
    "success_probability_sweep",
    "detection_ratio_experiment",
    "loss_chosen_victim_case_study",
    "paper_fig1_loss_scenario",
    "ChurnEvent",
    "EpochResult",
    "StreamResult",
    "StreamingCampaign",
    "random_churn_schedule",
    "knowledge_sensitivity_experiment",
    "load_scenario",
    "save_scenario",
    "scenario_from_json",
    "scenario_to_json",
    "path_selection_defense_experiment",
    "robust_recovery_experiment",
]
