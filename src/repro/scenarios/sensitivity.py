"""Sensitivity of attack planning to the attacker's knowledge of `x*`.

The strategy LPs assume the attacker knows the routine link metrics well
enough to plan (the paper makes the same implicit assumption by computing
`m` against ground truth).  In practice an attacker observes its own links
and estimates the rest.  This driver quantifies the assumption: the attack
is *planned* against a perturbed belief ``x* + noise`` but *executed*
against reality, and success is judged on the realised estimate —
victims actually abnormal, attacker links actually normal.

The headline finding: LP optima hug the band boundaries (attacker links
planned at exactly ``b_l - margin``), so the *margin* — not the distance
of routine metrics from the bands — is what absorbs knowledge error.
With the paper-faithful 1 ms margin, a couple of ms of belief error
already breaks the realised attack; planning with a generous margin buys
robustness at a modest damage cost.  The bench sweeps both.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import AttackContext
from repro.attacks.chosen_victim import ChosenVictimAttack
from repro.exceptions import ValidationError
from repro.metrics.states import LinkState
from repro.scenarios.montecarlo import run_trials
from repro.scenarios.scenario import Scenario
from repro.tomography.diagnosis import diagnose
from repro.utils.rng import spawn_rngs

__all__ = ["knowledge_sensitivity_experiment"]


def knowledge_sensitivity_experiment(
    scenario: Scenario,
    attacker_nodes,
    victim_links,
    *,
    knowledge_sigmas=(0.0, 2.0, 5.0, 10.0, 20.0, 50.0),
    num_trials: int = 20,
    mode: str = "exclusive",
    margin: float | None = None,
    seed: object = 0,
) -> dict:
    """Realised attack success vs the attacker's knowledge error.

    For each noise level ``sigma``, every trial perturbs the attacker's
    belief about the routine metrics by ``N(0, sigma)`` (clipped at zero),
    plans the chosen-victim attack against the belief, executes the
    resulting ``m`` against the *true* network, and scores:

    - ``planned``: the LP was feasible under the belief;
    - ``realised``: the true resulting estimate flags every victim
      abnormal *and* every attacker link normal (the attack actually
      worked as intended).

    ``margin`` overrides the scenario's planning margin — the attacker's
    robustness budget against its own knowledge error.  The trials of the
    ``i``-th noise level draw from the ``i``-th stream spawned from
    ``seed``.

    Returns per-sigma aggregates.
    """
    planning_margin = scenario.margin if margin is None else float(margin)
    victims = tuple(sorted(set(int(v) for v in victim_links)))
    system = scenario.system
    operator = system.estimator
    honest = scenario.honest_measurements()
    rows = []
    for sigma, cell_rng in zip(knowledge_sigmas, spawn_rngs(seed, len(knowledge_sigmas))):
        if sigma < 0:
            raise ValidationError(f"sigma must be >= 0, got {sigma}")

        def trial(rng: np.random.Generator, sigma=sigma) -> dict:
            belief = np.maximum(
                scenario.true_metrics + rng.normal(0.0, sigma, scenario.true_metrics.shape),
                0.0,
            )
            context = AttackContext(
                scenario.path_set,
                belief,
                attacker_nodes,
                thresholds=scenario.thresholds,
                cap=scenario.cap,
                margin=planning_margin,
                system=system,
            )
            outcome = ChosenVictimAttack(context, victims, mode=mode).run()
            if not outcome.feasible:
                return {"planned": False, "realised": False}
            realised_estimate = operator @ (honest + outcome.manipulation)
            report = diagnose(realised_estimate, scenario.thresholds)
            ok = all(report.state_of(v) is LinkState.ABNORMAL for v in victims) and all(
                report.state_of(j) is LinkState.NORMAL
                for j in context.controlled_links
            )
            return {"planned": True, "realised": bool(ok)}

        results = run_trials(num_trials, trial, seed=cell_rng)
        rows.append(
            {
                "sigma": float(sigma),
                "planned_rate": float(np.mean([r["planned"] for r in results])),
                "realised_rate": float(np.mean([r["realised"] for r in results])),
            }
        )
    return {
        "scenario": scenario.describe(),
        "victims": list(victims),
        "margin": planning_margin,
        "rows": rows,
    }
