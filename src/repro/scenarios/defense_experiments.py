"""Defence-side experiments: robust estimation and hardened path selection.

Two drivers quantify the library's defensive extensions:

- :func:`robust_recovery_experiment` — how well trimmed least squares
  (:class:`~repro.detection.robust.TrimmedLeastSquares`) recovers the true
  link metrics as the number of tampered measurement rows grows, compared
  to the paper's plain least squares.  Recovery is possible while the
  redundancy exceeds the tampering; beyond that the trimmer reports
  failure instead of guessing.
- :func:`path_selection_defense_experiment` — does presence-aware path
  selection (:func:`~repro.routing.selection.select_paths_min_presence`)
  actually reduce single-attacker scapegoating success, as Theorem 2's
  coverage argument predicts?
"""

from __future__ import annotations

import numpy as np

from repro.attacks.max_damage import MaxDamageAttack
from repro.detection.robust import TrimmedLeastSquares
from repro.exceptions import ValidationError
from repro.metrics.link_metrics import uniform_delay_metrics
from repro.monitors.placement import max_node_presence_ratio
from repro.routing.selection import (
    select_identifiable_paths,
    select_paths_min_presence,
)
from repro.scenarios.montecarlo import run_trials
from repro.scenarios.scenario import Scenario
from repro.utils.rng import spawn_rngs

__all__ = ["robust_recovery_experiment", "path_selection_defense_experiment"]


def robust_recovery_experiment(
    scenario: Scenario,
    *,
    tamper_counts=(1, 2, 3, 5, 8),
    magnitude: float = 1000.0,
    num_trials: int = 20,
    residual_tolerance: float = 1.0,
    seed: object = 0,
) -> dict:
    """Estimation error of plain LS vs trimmed LS under row tampering.

    Each trial tampers ``k`` random measurement rows by up to
    ``magnitude`` and records both estimators' max absolute link-metric
    error plus whether the trimmer converged and found the tampered rows.
    The trials of the ``i``-th count draw from the ``i``-th stream spawned
    from ``seed``.  Returns per-``k`` aggregates.
    """
    matrix = scenario.path_set.routing_matrix()
    tls = TrimmedLeastSquares(matrix, residual_tolerance=residual_tolerance)
    honest = scenario.honest_measurements()
    rows = []
    for k, cell_rng in zip(tamper_counts, spawn_rngs(seed, len(tamper_counts))):
        if not 0 < k <= matrix.shape[0]:
            raise ValidationError(f"tamper count {k} out of range")

        def trial(rng: np.random.Generator, k=k) -> dict:
            tampered = rng.choice(matrix.shape[0], size=k, replace=False)
            y = honest.copy()
            y[tampered] += rng.uniform(magnitude / 2, magnitude, size=k)
            ls_error = float(
                np.max(np.abs(scenario.system.estimate(y) - scenario.true_metrics))
            )
            robust = tls.estimate(y)
            robust_error = float(
                np.max(np.abs(robust.estimate - scenario.true_metrics))
            )
            return {
                "ls_error": ls_error,
                "robust_error": robust_error,
                "converged": robust.converged,
                "found_all": set(tampered) <= set(robust.excluded_paths),
            }

        results = run_trials(num_trials, trial, seed=cell_rng)
        rows.append(
            {
                "tampered_rows": k,
                "ls_error": float(np.mean([r["ls_error"] for r in results])),
                "robust_error": float(np.mean([r["robust_error"] for r in results])),
                "converged_rate": float(np.mean([r["converged"] for r in results])),
                "found_all_rate": float(np.mean([r["found_all"] for r in results])),
            }
        )
    return {"scenario": scenario.describe(), "rows": rows, "magnitude": magnitude}


def path_selection_defense_experiment(
    topology,
    monitors,
    *,
    num_trials: int = 30,
    redundancy: int = 3,
    seed: object = 0,
) -> dict:
    """Single-attacker success under plain vs presence-aware path selection.

    Builds two scenarios over the same topology / monitors / ground truth,
    differing only in path selection, and measures the confined
    max-damage success rate of a random single attacker plus the worst
    node presence ratio.  Returns one record per selection strategy.
    """
    selections = {
        "rank-greedy": select_identifiable_paths(
            topology, monitors, redundancy=redundancy, rng=seed
        ),
        "min-presence": select_paths_min_presence(
            topology, monitors, redundancy=redundancy, rng=seed
        ),
    }
    metrics = uniform_delay_metrics(topology, rng=seed)
    records = []
    for label, path_set in selections.items():
        scenario = Scenario(
            topology=topology,
            monitors=tuple(monitors),
            path_set=path_set,
            true_metrics=metrics,
            name=f"path-defense-{label}",
        )

        def trial(rng: np.random.Generator) -> dict:
            nodes = topology.nodes()
            attacker = nodes[int(rng.integers(len(nodes)))]
            context = scenario.attack_context([attacker])
            outcome = MaxDamageAttack(
                context, stop_at_first_feasible=True, confined=True
            ).run()
            return {"success": outcome.feasible}

        results = run_trials(num_trials, trial, seed=seed)
        records.append(
            {
                "selection": label,
                "paths": path_set.num_paths,
                "max_presence": max_node_presence_ratio(path_set),
                "attack_success": float(np.mean([r["success"] for r in results])),
            }
        )
    return {"records": records, "num_trials": num_trials}
