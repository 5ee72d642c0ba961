"""Detection experiments (Section V-D — Fig. 9).

For each strategy and cut regime, trials sample an attacker set, pick
victims that the attackers do (perfect) or do not (imperfect) fully cut,
plan the attack, feed the forged measurements to the consistency detector
(alpha = 200 ms, the paper's setting), and record whether it fires.  Clean
rounds measure the false-alarm rate.

Three attacker models are supported (``attacker_model``):

- ``"confined"`` (default — the paper's model): estimate changes are
  restricted to ``L_m ∪ L_s`` (exactly the assumption inside the Theorem
  1/3 proofs), and the attacker prefers measurement-consistent solutions
  when they exist.  Reproduces Theorem 3's dichotomy: perfect cut =>
  0% detection, imperfect cut => 100% detection.
- ``"unconfined"`` — the strictly stronger LP attacker that may also move
  estimates of uninvolved links and prefers consistent solutions.  It
  evades the detector in a fraction of *imperfect*-cut cases too (a
  finding beyond the paper, recorded in EXPERIMENTS.md).
- ``"plain"`` — the naive damage-maximising LP with no care for
  consistency; detected essentially always, under both cut regimes.

Note: the paper's prose for Fig. 9 states the ratios inverted relative to
its own Theorem 3; we follow the theorem (see DESIGN.md / EXPERIMENTS.md).
"""

from __future__ import annotations

import numpy as np

from repro.attacks.chosen_victim import ChosenVictimAttack
from repro.attacks.cuts import attack_presence_ratio, perfectly_cut_links
from repro.attacks.max_damage import MaxDamageAttack
from repro.attacks.obfuscation import ObfuscationAttack
from repro.detection.consistency import ConsistencyDetector
from repro.exceptions import AttackError, ValidationError
from repro.obs import core as obs
from repro.scenarios.montecarlo import run_trials, success_rate
from repro.scenarios.scenario import Scenario
from repro.tomography.estimator_zoo import calibrated_alpha, resolve_estimator

__all__ = [
    "ablation_estimator_zoo",
    "detection_ratio_experiment",
    "false_alarm_experiment",
]

_STRATEGIES = ("chosen-victim", "max-damage", "obfuscation")
_CUTS = ("perfect", "imperfect")
#: Honest draws per multi-RHS check in :func:`false_alarm_experiment`.
_CHECK_BLOCK = 256


def _victim_pools(scenario: Scenario, attackers, controlled: set[int]) -> tuple[list[int], list[int]]:
    """Candidate victims split into perfectly cut and imperfectly cut.

    Imperfect candidates must still be *touchable* (presence ratio > 0) or
    no strategy could move their estimate at all.
    """
    perfect = perfectly_cut_links(scenario.path_set, attackers, exclude_links=controlled)
    perfect_set = set(perfect)
    imperfect = []
    for link in scenario.topology.links():
        j = link.index
        if j in controlled or j in perfect_set:
            continue
        ratio = attack_presence_ratio(scenario.path_set, attackers, [j])
        if np.isfinite(ratio) and 0.0 < ratio < 1.0:
            imperfect.append(j)
    return perfect, imperfect


def _run_strategy(strategy, context, victims, rng, *, stealthy, confined):
    """Run one strategy restricted to the given victim pool."""
    if strategy == "chosen-victim":
        victim = victims[int(rng.integers(len(victims)))]
        return ChosenVictimAttack(
            context, [victim], stealthy=stealthy, confined=confined
        ).run()
    if strategy == "max-damage":
        return MaxDamageAttack(
            context,
            candidate_links=victims,
            stop_at_first_feasible=True,
            stealthy=stealthy,
            confined=confined,
        ).run()
    if strategy == "obfuscation":
        min_victims = min(2, len(victims))
        return ObfuscationAttack(
            context,
            candidate_links=victims,
            min_victims=min_victims,
            max_victims=max(min_victims, min(5, len(victims))),
            stealthy=stealthy,
            confined=confined,
        ).run()
    raise ValidationError(f"unknown strategy {strategy!r}")


def detection_ratio_experiment(
    scenario: Scenario,
    strategy: str,
    cut: str,
    *,
    num_trials: int = 50,
    alpha: float = 200.0,
    attacker_sizes=(1, 2, 3),
    attacker_model: str = "confined",
    seed: object = 0,
) -> dict:
    """Detection ratio for one (strategy, cut-regime) cell of Fig. 9.

    Returns the detection ratio over *successful* attacks (an infeasible
    attack leaves nothing to detect), the per-trial records, and the count
    of valid trials.  See the module docstring for the three
    ``attacker_model`` values; ``"confined"`` reproduces the paper.
    """
    if strategy not in _STRATEGIES:
        raise ValidationError(f"strategy must be one of {_STRATEGIES}, got {strategy!r}")
    if cut not in _CUTS:
        raise ValidationError(f"cut must be one of {_CUTS}, got {cut!r}")
    if attacker_model not in ("confined", "unconfined", "plain"):
        raise ValidationError(
            f"attacker_model must be 'confined', 'unconfined' or 'plain', got {attacker_model!r}"
        )
    if not attacker_sizes:
        raise ValidationError("attacker_sizes must not be empty")
    confined = attacker_model == "confined"
    stealth_first = attacker_model in ("confined", "unconfined")
    detector = ConsistencyDetector(scenario.system, alpha)

    def trial(rng: np.random.Generator) -> dict | None:
        nodes = scenario.topology.nodes()
        size = int(rng.choice(list(attacker_sizes)))
        picks = rng.choice(len(nodes), size=min(size, len(nodes)), replace=False)
        attackers = [nodes[int(i)] for i in picks]
        context = scenario.attack_context(attackers)
        perfect, imperfect = _victim_pools(
            scenario, attackers, set(context.controlled_links)
        )
        victims = perfect if cut == "perfect" else imperfect
        if not victims:
            return None
        if stealth_first:
            outcome = _run_strategy(
                strategy, context, victims, rng, stealthy=True, confined=confined
            )
            used_stealth = True
            if not outcome.feasible:
                outcome = _run_strategy(
                    strategy, context, victims, rng, stealthy=False, confined=confined
                )
                used_stealth = False
        else:
            outcome = _run_strategy(
                strategy, context, victims, rng, stealthy=False, confined=False
            )
            used_stealth = False
        if not outcome.feasible:
            return {"attack_success": False, "detected": None, "stealthy": None}
        if outcome.observed_measurements is None:
            raise AttackError("feasible outcome carries no observed measurements")
        result = detector.check(outcome.observed_measurements)
        return {
            "attack_success": True,
            "detected": result.detected,
            "residual_l1": result.residual_l1,
            "stealthy": used_stealth,
            "num_attackers": len(attackers),
            "victims": list(outcome.victim_links),
        }

    with obs.span(
        "detection_experiment",
        strategy=strategy,
        cut=cut,
        attacker_model=attacker_model,
        trials=num_trials,
    ):
        trials = run_trials(num_trials, trial, seed=seed)
    successful = [t for t in trials if t["attack_success"]]
    detected = [t for t in successful if t["detected"]]
    if obs.is_enabled():
        obs.event(
            "detection_result",
            strategy=strategy,
            cut=cut,
            valid_trials=len(trials),
            successful_attacks=len(successful),
            detected=len(detected),
        )
    return {
        "scenario": scenario.describe(),
        "strategy": strategy,
        "cut": cut,
        "alpha": alpha,
        "num_valid_trials": len(trials),
        "num_successful_attacks": len(successful),
        "detection_ratio": (len(detected) / len(successful)) if successful else float("nan"),
        "attack_success_rate": success_rate(trials, "attack_success"),
        "trials": trials,
    }


def ablation_estimator_zoo(
    scenario: Scenario,
    *,
    estimators=("ls", "bayes-map", "l1"),
    estimator_params: dict | None = None,
    strategy: str = "chosen-victim",
    cut: str = "perfect",
    num_trials: int = 30,
    base_alpha: float = 200.0,
    attacker_sizes=(1, 2, 3),
    roc_points: int = 9,
    seed: object = 0,
) -> dict:
    """Does scapegoating survive a defender who does not run least squares?

    The paper's attacks are planned against eq. (2); this ablation replays
    the same planned manipulations against each estimator family in
    ``estimators`` and records, per family: the attack-success rate, the
    scapegoat-landing rate (all intended victims diagnosed abnormal under
    *that* estimator), the detection ratio at a per-estimator calibrated
    alpha (:func:`~repro.tomography.estimator_zoo.calibrated_alpha` —
    ``base_alpha`` of head-room above the family's honest-round residual
    bias), and an ROC table thresholding the residual over attacked versus
    honest rounds.  Trials are re-seeded identically per family, so every
    estimator judges the *same* attack sequence and rows are directly
    comparable.

    ``estimator_params`` optionally maps a family name to its constructor
    parameters (e.g. ``{"bayes-map": {"prior_var": 100.0}}``).
    """
    if strategy not in _STRATEGIES:
        raise ValidationError(f"strategy must be one of {_STRATEGIES}, got {strategy!r}")
    if cut not in _CUTS:
        raise ValidationError(f"cut must be one of {_CUTS}, got {cut!r}")
    if not estimators:
        raise ValidationError("estimators must name at least one family")
    if not attacker_sizes:
        raise ValidationError("attacker_sizes must not be empty")
    params_by_name = dict(estimator_params or {})
    unknown = set(params_by_name) - set(estimators)
    if unknown:
        raise ValidationError(
            f"estimator_params for families not being ablated: {sorted(unknown)}"
        )
    # One factorisation serves every family: each estimator is resolved
    # over the scenario's shared kernel (the RP001 discipline this
    # ablation stress-tests).
    system = scenario.system
    honest = scenario.honest_measurements()
    rows = []
    with obs.span(
        "ablation_estimator_zoo",
        strategy=strategy,
        cut=cut,
        estimators=list(estimators),
        trials=num_trials,
    ):
        for name in estimators:
            estimator = resolve_estimator(
                name, system=system, **params_by_name.get(name, {})
            )
            alpha = calibrated_alpha(estimator, honest, base_alpha)
            detector = ConsistencyDetector(system, alpha, estimator=estimator)
            honest_residual = detector.check(honest).residual_l1

            def trial(rng: np.random.Generator) -> dict | None:
                nodes = scenario.topology.nodes()
                size = int(rng.choice(list(attacker_sizes)))
                picks = rng.choice(len(nodes), size=min(size, len(nodes)), replace=False)
                attackers = [nodes[int(i)] for i in picks]
                context = scenario.attack_context(attackers, estimator=estimator)
                perfect, imperfect = _victim_pools(
                    scenario, attackers, set(context.controlled_links)
                )
                victims = perfect if cut == "perfect" else imperfect
                if not victims:
                    return None
                outcome = _run_strategy(
                    strategy, context, victims, rng, stealthy=True, confined=True
                )
                if not outcome.feasible:
                    outcome = _run_strategy(
                        strategy, context, victims, rng, stealthy=False, confined=True
                    )
                if not outcome.feasible:
                    return {"attack_success": False, "detected": None, "landed": None}
                if outcome.observed_measurements is None:
                    raise AttackError("feasible outcome carries no observed measurements")
                result = detector.check(outcome.observed_measurements)
                landed = outcome.diagnosis is not None and set(
                    outcome.victim_links
                ) <= set(outcome.diagnosis.abnormal)
                return {
                    "attack_success": True,
                    "detected": result.detected,
                    "landed": bool(landed),
                    "residual_l1": result.residual_l1,
                    "damage": outcome.damage,
                }

            trials = run_trials(num_trials, trial, seed=seed)
            successful = [t for t in trials if t["attack_success"]]
            detected = [t for t in successful if t["detected"]]
            landed = [t for t in successful if t["landed"]]
            attacked_residuals = [t["residual_l1"] for t in successful]
            roc = _roc_table(attacked_residuals, [honest_residual], roc_points)
            if obs.is_enabled():
                obs.event(
                    "estimator_ablation_result",
                    estimator=name,
                    alpha=alpha,
                    valid_trials=len(trials),
                    successful_attacks=len(successful),
                    detected=len(detected),
                    landed=len(landed),
                )
            rows.append(
                {
                    "estimator": name,
                    "params": dict(estimator.params()),
                    "alpha": alpha,
                    "honest_residual": honest_residual,
                    "num_valid_trials": len(trials),
                    "attack_success_rate": success_rate(trials, "attack_success"),
                    "scapegoat_rate": (
                        (len(landed) / len(successful)) if successful else float("nan")
                    ),
                    "detection_ratio": (
                        (len(detected) / len(successful)) if successful else float("nan")
                    ),
                    "mean_damage": (
                        float(np.mean([t["damage"] for t in successful]))
                        if successful
                        else 0.0
                    ),
                    "roc": roc,
                }
            )
    return {
        "scenario": scenario.describe(),
        "strategy": strategy,
        "cut": cut,
        "base_alpha": base_alpha,
        "num_trials": num_trials,
        "estimators": rows,
    }


def _roc_table(
    attacked: list[float], honest: list[float], roc_points: int
) -> list[dict]:
    """Residual-threshold ROC rows over attacked vs. honest rounds.

    Thresholds are midpoints between consecutive distinct residuals (the
    only places the operating point can change), bracketed by one
    threshold below and one above everything, thinned to ``roc_points``.
    """
    values = sorted(set(attacked) | set(honest))
    if not values:
        return []
    candidates = [values[0] - 1.0]
    candidates += [(a + b) / 2.0 for a, b in zip(values, values[1:])]
    candidates.append(values[-1] + 1.0)
    if len(candidates) > roc_points:
        idx = np.linspace(0, len(candidates) - 1, roc_points).round().astype(int)
        candidates = [candidates[int(i)] for i in sorted(set(idx.tolist()))]
    rows = []
    for threshold in candidates:
        tpr = (
            sum(1 for r in attacked if r > threshold) / len(attacked)
            if attacked
            else float("nan")
        )
        fpr = sum(1 for r in honest if r > threshold) / len(honest)
        rows.append(
            {
                "threshold": float(threshold),
                "true_positive_rate": float(tpr),
                "false_positive_rate": float(fpr),
            }
        )
    return rows


def false_alarm_experiment(
    scenario: Scenario,
    *,
    num_trials: int = 50,
    alpha: float = 200.0,
    noise_model=None,
    seed: object = 0,
) -> dict:
    """False-alarm rate of the detector on honest measurement rounds.

    With the paper's noiseless model the residual is numerically zero and
    no alarms fire; passing a noise model measures how ``alpha`` absorbs
    real measurement randomness (ablation bench).
    """
    detector = ConsistencyDetector(scenario.system, alpha)
    engine = scenario.engine(noise_model)

    def draw(rng: np.random.Generator) -> np.ndarray:
        return engine.measure(scenario.true_metrics, rng=rng)

    # Checks are batched: each block of honest draws goes through one
    # multi-RHS detector call instead of a per-trial matvec loop (same
    # verdicts as checking each draw alone).
    with obs.span("false_alarm_experiment", alpha=alpha, trials=num_trials):
        draws = run_trials(num_trials, draw, seed=seed)
        results = [
            result
            for start in range(0, len(draws), _CHECK_BLOCK)
            for result in detector.check_batch(
                np.stack(draws[start : start + _CHECK_BLOCK], axis=1)
            )
        ]
    trials = [
        {"detected": r.detected, "residual_l1": r.residual_l1} for r in results
    ]
    if obs.is_enabled():
        obs.event(
            "false_alarm_result",
            trials=len(trials),
            alarms=sum(1 for t in trials if t["detected"]),
        )
    return {
        "scenario": scenario.describe(),
        "alpha": alpha,
        "false_alarm_rate": success_rate(trials, "detected"),
        "max_residual": max(t["residual_l1"] for t in trials),
        "trials": trials,
    }
