"""Loss-domain scenarios: scapegoating by dropping packets.

The paper's formulation is metric-agnostic (Remark 2): everything in the
delay pipeline carries over to packet loss once metrics move to the log
domain.  This module provides the loss-domain counterpart of the Fig. 1
setting and a chosen-victim case study executed as *actual packet drops*
in the discrete-event simulator:

1. ground truth: per-link loss rates (routine links lose 0-1% of packets);
2. thresholds: delivery > 95% is normal, < 50% abnormal (log domain);
3. the attack LP runs unchanged on log metrics (cap = the log metric of
   the attacker's maximum tolerable drop rate);
4. the plan compiles to per-path *drop probabilities* for attacker nodes,
   the simulator measures delivery ratios over many probes, and
   tomography in the log domain blames the scapegoat.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.chosen_victim import ChosenVictimAttack
from repro.attacks.cuts import is_perfect_cut
from repro.attacks.planner import compile_attack_plan
from repro.measurement.loss import (
    delivery_to_log_measurements,
    loss_thresholds,
    manipulation_to_drop_probabilities,
)
from repro.measurement.simulator.adversary import PathManipulationAgent
from repro.measurement.simulator.network_sim import NetworkSimulator
from repro.metrics.link_metrics import loss_rate_to_log_metric
from repro.scenarios.scenario import Scenario
from repro.scenarios.simple_network import _fig1_paths
from repro.tomography.diagnosis import diagnose
from repro.topology.generators.simple import (
    PAPER_EXAMPLE_ATTACKERS,
    PAPER_EXAMPLE_MONITORS,
    paper_example_network,
)
from repro.utils.rng import ensure_rng

__all__ = [
    "paper_fig1_loss_scenario",
    "compile_loss_attack_plan",
    "loss_chosen_victim_case_study",
]

#: Default per-path cap in the log domain: at most ~99% probe drop rate.
DEFAULT_LOSS_CAP = float(-np.log(1.0 - 0.99))


def paper_fig1_loss_scenario(
    *,
    routine_loss: tuple[float, float] = (0.0, 0.01),
    normal_delivery: float = 0.95,
    abnormal_delivery: float = 0.50,
    seed: object = 2017,
) -> Scenario:
    """The Fig. 1 setting with loss metrics instead of delays.

    Routine links drop between ``routine_loss[0]`` and ``routine_loss[1]``
    of their packets; ``true_metrics`` holds the additive ``-log`` metric.
    """
    topology = paper_example_network()
    path_set = _fig1_paths(topology)
    rng = ensure_rng(seed)
    lo, hi = routine_loss
    loss_rates = rng.uniform(lo, hi, size=topology.num_links)
    return Scenario(
        topology=topology,
        monitors=PAPER_EXAMPLE_MONITORS,
        path_set=path_set,
        true_metrics=loss_rate_to_log_metric(loss_rates),
        thresholds=loss_thresholds(normal_delivery, abnormal_delivery),
        cap=DEFAULT_LOSS_CAP,
        margin=0.01,  # log-domain units (~1% delivery headroom vs sampling noise)
        name="paper-fig1-loss",
    )


def compile_loss_attack_plan(
    scenario: Scenario, attacker_nodes, manipulation: np.ndarray
) -> dict:
    """Compile a log-domain manipulation into per-path *drop* agents.

    The node assignment is the delay plan's
    (:func:`~repro.attacks.planner.compile_attack_plan`: the first
    attacker node on the path, interior preferred, Constraint 1 checked);
    each manipulated path's entry ``m_i`` becomes a per-probe drop
    probability ``1 - exp(-m_i)`` at that node.
    """
    plan = compile_attack_plan(scenario.path_set, attacker_nodes, manipulation)
    drops = manipulation_to_drop_probabilities(plan.manipulation)
    agents: dict = {}
    for row, node in plan.assignment.items():
        agent = agents.setdefault(node, PathManipulationAgent(node=node))
        agent.set_action(row, drop_probability=float(drops[row]))
    return agents


def loss_chosen_victim_case_study(
    *,
    victim_link: int = 9,
    attackers=PAPER_EXAMPLE_ATTACKERS,
    probes_per_path: int = 4000,
    seed: object = 2017,
) -> dict:
    """Loss-domain Fig. 4 analogue: scapegoat link 10 as a lossy link.

    Plans the chosen-victim attack on log metrics, executes it as packet
    drops in the simulator, measures per-path delivery ratios over
    ``probes_per_path`` probes, and runs log-domain tomography on the
    result.  Returns the planned and measured diagnoses side by side.
    """
    scenario = paper_fig1_loss_scenario(seed=seed)
    context = scenario.attack_context(attackers)
    outcome = ChosenVictimAttack(context, [victim_link], mode="exclusive").run()
    record = {
        "scenario": scenario,
        "outcome": outcome,
        "feasible": outcome.feasible,
        "victim_link": victim_link,
        "perfect_cut": is_perfect_cut(scenario.path_set, attackers, [victim_link]),
    }
    if not outcome.feasible:
        return record

    agents = compile_loss_attack_plan(scenario, attackers, outcome.manipulation)
    simulator = NetworkSimulator(
        scenario.topology,
        np.ones(scenario.topology.num_links),  # delays irrelevant here
        agents=agents,
        link_loss=1.0 - np.exp(-scenario.true_metrics),
    )
    sim_record = simulator.run_measurement(
        scenario.path_set, probes_per_path=probes_per_path, rng=seed
    )
    observed = delivery_to_log_measurements(sim_record.delivery_ratio_vector())
    measured = diagnose(scenario.system.estimate(observed), scenario.thresholds)
    planned = outcome.diagnosis

    record.update(
        {
            "planned_abnormal": list(planned.abnormal),
            "measured_abnormal": list(measured.abnormal),
            "victim_delivery_estimate": float(np.exp(-measured.estimate[victim_link])),
            "min_delivery_ratio": float(np.min(sim_record.delivery_ratio_vector())),
            "planned_diagnosis": planned,
            "measured_diagnosis": measured,
        }
    )
    return record
