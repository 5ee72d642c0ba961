#!/usr/bin/env python3
"""Quickstart: scapegoating on the paper's example network.

Walks the full story of the paper on the Fig. 1 topology:

1. build the network, monitors, and 23 measurement paths;
2. run honest tomography (every link looks fine);
3. let malicious nodes B and C frame link 10 (chosen-victim attack) —
   tomography now blames an innocent link while the attackers' own links
   look healthy;
4. run the consistency detector: the imperfect-cut attack is caught, but a
   stealthy perfect-cut attack on link 1 is not (Theorem 3);
5. show the same attack executed as per-packet behaviour in the
   discrete-event simulator, reproducing the analytic result exactly.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import ChosenVictimAttack, compile_attack_plan, diagnose
from repro.detection import TomographyAuditor
from repro.reporting import format_link_series
from repro.scenarios.simple_network import paper_fig1_scenario


def main() -> None:
    scenario = paper_fig1_scenario(seed=2017)
    print(f"scenario: {scenario.describe()}")

    # ------------------------------------------------------------------
    # 1-2. Honest tomography.
    # ------------------------------------------------------------------
    system = scenario.system  # least squares, x_hat = R⁺ y (eq. 2)
    honest_y = scenario.honest_measurements()
    honest_report = diagnose(system.estimate(honest_y), scenario.thresholds)
    print("\nhonest round: abnormal links =", list(honest_report.abnormal) or "none")

    # ------------------------------------------------------------------
    # 3. Chosen-victim scapegoating of link 10 (index 9) by B and C.
    # ------------------------------------------------------------------
    context = scenario.attack_context(["B", "C"])
    attack = ChosenVictimAttack(context, victim_links=[9], mode="exclusive")
    outcome = attack.run()
    if not outcome.feasible:
        raise RuntimeError(f"chosen-victim attack infeasible: {outcome.status}")
    print(
        f"\nchosen-victim attack: damage ||m||_1 = {outcome.damage:.0f} ms, "
        f"mean path delay {outcome.mean_path_measurement:.1f} ms "
        "(paper Fig. 4: 820.87 ms)"
    )
    print(
        format_link_series(
            [float(v) for v in outcome.predicted_estimate],
            [str(s) for s in outcome.diagnosis.states],
            title="operator's view under attack:",
            victim_links=[9],
            controlled_links=sorted(context.controlled_links),
        )
    )

    # ------------------------------------------------------------------
    # 4. Detection (eq. 23, alpha = 200 ms).
    # ------------------------------------------------------------------
    auditor = TomographyAuditor(scenario.path_set, alpha=200.0)
    report = auditor.audit(outcome.observed_measurements)
    print(
        f"\nauditor on the link-10 attack: trustworthy={report.trustworthy} "
        f"(residual {report.detection.residual_l1:.1f} ms > alpha) — caught, "
        "because B and C do not perfectly cut link 10."
    )

    stealthy = ChosenVictimAttack(
        context, victim_links=[0], stealthy=True, confined=True
    ).run()
    if not stealthy.feasible:
        raise RuntimeError(f"stealthy attack infeasible: {stealthy.status}")
    stealth_report = auditor.audit(stealthy.observed_measurements)
    print(
        f"auditor on a stealthy perfect-cut attack framing link 1: "
        f"trustworthy={stealth_report.trustworthy}, blamed links = "
        f"{[j + 1 for j in stealth_report.diagnosis.abnormal]} — Theorem 3's "
        "blind spot: the forged measurements are perfectly consistent."
    )

    # ------------------------------------------------------------------
    # 5. The same attack as packet behaviour.
    # ------------------------------------------------------------------
    plan = compile_attack_plan(
        scenario.path_set, ["B", "C"], outcome.manipulation, cap=scenario.cap
    )
    simulator = scenario.simulator(agents=plan.agents)
    record = simulator.run_measurement(scenario.path_set, probes_per_path=3, rng=1)
    y_sim = record.path_delay_vector()
    print(
        f"\npacket simulator: max |y_sim - y_model| = "
        f"{float(np.max(np.abs(y_sim - outcome.observed_measurements))):.2e} ms "
        f"({sum(len(a.actions) for a in plan.agents.values())} per-path agent rules "
        f"at nodes {sorted(plan.agents)})"
    )
    packet_report = diagnose(system.estimate(y_sim), scenario.thresholds)
    print(
        "operator diagnosis from simulated packets: abnormal =",
        [j + 1 for j in packet_report.abnormal],
        "(paper link numbering) — the scapegoat, again.",
    )


if __name__ == "__main__":
    main()
