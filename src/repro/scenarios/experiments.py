"""Success-probability experiments (Section V-C — Figs. 7 and 8).

Two standard substrates mirror the paper's:

- *wireline* — a synthetic Rocketfuel-style ISP topology (AS1221 stand-in,
  see DESIGN.md for the substitution note);
- *wireless* — a 100-node random geometric graph with density lambda = 5
  and ~5 neighbours per node.

Each Monte-Carlo trial samples attackers (and, for chosen-victim, a victim
link), plans the attack, and records success = LP feasibility.  Fig. 7
bins chosen-victim success by the *attack presence ratio*; Fig. 8 reports
single-attacker success rates for maximum-damage and obfuscation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.attacks.chosen_victim import ChosenVictimAttack
from repro.attacks.cuts import attack_presence_ratio, is_perfect_cut
from repro.attacks.max_damage import MaxDamageAttack
from repro.attacks.obfuscation import ObfuscationAttack
from repro.exceptions import ValidationError
from repro.scenarios.montecarlo import binned_rate, run_trials, success_rate
from repro.scenarios.scenario import Scenario
from repro.topology.generators.geometric import random_geometric_topology
from repro.topology.generators.isp import synthetic_rocketfuel

__all__ = [
    "sample_victim",
    "standard_wireline_scenario",
    "standard_wireless_scenario",
    "success_probability_sweep",
    "single_attacker_sweep",
]


def standard_wireline_scenario(*, seed: object = 0, **overrides) -> Scenario:
    """The wireline experiment scenario (synthetic AS1221-style ISP)."""
    defaults = dict(monitor_fraction=0.3, max_per_pair=6, name="wireline-as1221")
    defaults.update(overrides)
    topology = synthetic_rocketfuel("AS1221", seed=seed)
    return Scenario.build(topology, rng=seed, **defaults)


def standard_wireless_scenario(*, seed: object = 0, **overrides) -> Scenario:
    """The wireless experiment scenario (RGG, 100 nodes, lambda = 5)."""
    defaults = dict(monitor_fraction=0.5, max_per_pair=12, name="wireless-rgg")
    defaults.update(overrides)
    topology = random_geometric_topology(100, density=5.0, mean_degree=5.0, seed=seed)
    return Scenario.build(topology, rng=seed, **defaults)


def _sample_attackers(scenario: Scenario, rng: np.random.Generator, sizes) -> list:
    """Draw an attacker node set (monitors included — they are not protected)."""
    size = int(rng.choice(list(sizes)))
    nodes = scenario.topology.nodes()
    picks = rng.choice(len(nodes), size=min(size, len(nodes)), replace=False)
    return [nodes[int(i)] for i in picks]


def sample_victim(scenario: Scenario, rng: np.random.Generator, forbidden: set) -> int | None:
    """Draw a measured victim link whose endpoints are not attackers.

    Candidates are taken in link order and one ``rng.integers`` draw picks
    among them, so the Fig. 7 trials and the sweep grid's chosen-victim
    points consume their streams identically.
    """
    measured = [
        link.index
        for link in scenario.topology.links()
        if link.u not in forbidden
        and link.v not in forbidden
        and scenario.path_set.paths_containing_link(link.index)
    ]
    if not measured:
        return None
    return int(measured[int(rng.integers(len(measured)))])


def success_probability_sweep(
    scenario: Scenario,
    *,
    num_trials: int = 200,
    attacker_sizes=(1, 2, 3, 4, 5),
    mode: str = "exclusive",
    confined: bool = False,
    seed: object = 0,
) -> dict:
    """Fig. 7: chosen-victim success probability vs attack presence ratio.

    Each trial draws an attacker set and a victim link (rejecting draws
    whose victim is attacker-incident or unmeasured), records the presence
    ratio and LP feasibility, and the results are binned by ratio decile.
    Returns ``{"trials": [...], "bins": [...], "scenario": {...}}``.

    The default attack criterion is ``mode="exclusive"`` (the victim must
    be the *only* abnormal link — a true scapegoat) with the unconfined
    LP; this reproduces the paper's Fig. 7 shape, including the steep rise
    around presence ratios 0.6-0.7 and certainty at a perfect cut
    (Theorem 1).  Two ablations are exposed: ``mode="paper"`` scores the
    literal eq. (4)-(7) feasibility (other links may drift abnormal, which
    lets least-squares coupling through victim-free paths succeed even at
    low ratios), and ``confined=True`` restricts estimate changes to
    ``L_m ∪ L_s`` as in the Theorem 1/3 proofs (success then collapses to
    exactly the perfect-cut case).  See EXPERIMENTS.md.
    """
    if not attacker_sizes:
        raise ValidationError("attacker_sizes must not be empty")

    def trial(rng: np.random.Generator) -> dict | None:
        attackers = _sample_attackers(scenario, rng, attacker_sizes)
        victim = sample_victim(scenario, rng, set(attackers))
        if victim is None:
            return None
        ratio = attack_presence_ratio(scenario.path_set, attackers, [victim])
        if math.isnan(ratio):
            return None
        context = scenario.attack_context(attackers)
        outcome = ChosenVictimAttack(
            context, [victim], mode=mode, confined=confined
        ).run()
        return {
            "presence_ratio": ratio,
            "success": outcome.feasible,
            "perfect_cut": is_perfect_cut(scenario.path_set, attackers, [victim]),
            "num_attackers": len(attackers),
            "damage": outcome.damage,
        }

    trials = run_trials(num_trials, trial, seed=seed)
    return {
        "scenario": scenario.describe(),
        "trials": trials,
        "bins": binned_rate(trials, "presence_ratio", "success"),
        "overall_success": success_rate(trials),
    }


def single_attacker_sweep(
    scenario: Scenario,
    *,
    num_trials: int = 100,
    min_obfuscation_victims: int = 5,
    mode: str = "paper",
    confined: bool = True,
    seed: object = 0,
) -> dict:
    """Fig. 8: single-attacker maximum-damage and obfuscation success.

    One random attacker node per trial; maximum-damage succeeds when *any*
    victim link admits a feasible plan (the scan short-circuits), and
    obfuscation when at least ``min_obfuscation_victims`` victim links can
    be pinned in the uncertain band (Section V-C2's success condition).

    The default attacker model is ``confined=True`` — estimate changes
    restricted to ``L_m ∪ L_s``, the model inside the paper's proofs.  It
    reproduces Fig. 8's ordering: a single attacker succeeds at
    maximum-damage whenever it holds a captive cut (common behind
    hierarchical ISP aggregation), while obfuscation is markedly harder
    because it must pin ``min_obfuscation_victims`` victims at once — the
    paper's stated explanation.  ``confined=False`` is the stronger LP
    attacker ablation (both strategies then succeed much more often).
    """

    def trial(rng: np.random.Generator) -> dict | None:
        attackers = _sample_attackers(scenario, rng, (1,))
        context = scenario.attack_context(attackers)
        max_damage = MaxDamageAttack(
            context, stop_at_first_feasible=True, mode=mode, confined=confined
        ).run()
        obfuscation = ObfuscationAttack(
            context,
            min_victims=min_obfuscation_victims,
            max_victims=min_obfuscation_victims,
            mode=mode,
            confined=confined,
        ).run()
        return {
            "attacker": attackers[0],
            "max_damage_success": max_damage.feasible,
            "obfuscation_success": obfuscation.feasible,
            "max_damage": max_damage.damage,
            "obfuscation_victims": len(obfuscation.victim_links),
        }

    trials = run_trials(num_trials, trial, seed=seed)
    return {
        "scenario": scenario.describe(),
        "trials": trials,
        "max_damage_success_rate": success_rate(trials, "max_damage_success"),
        "obfuscation_success_rate": success_rate(trials, "obfuscation_success"),
    }
