#!/usr/bin/env python3
"""Data-centre scapegoating: a compromised switch frames a core uplink.

The paper's threat model (backdoored routers, insider threats) maps
naturally onto data-centre fabrics, where operators run exactly this kind
of probe-based tomography between ToR/edge switches.  On a k=4 fat tree:

1. monitors = all edge and core switches; measurement paths selected for
   full identifiability (+ redundancy for the detector);
2. one compromised aggregation switch plans a chosen-victim attack that
   frames a core uplink in *another* pod's aggregation layer;
3. the attack executes as per-packet delays in the simulator; tomography
   on the resulting probe timings blames the victim uplink;
4. the fabric's high path redundancy is a double-edged sword: it makes
   perfect cuts rare (good: attacks are detectable) but gives every
   switch presence on many paths (bad: plenty of manipulation support).

Run:  python examples/datacenter_fat_tree.py
"""

from repro import (
    ChosenVictimAttack,
    Scenario,
    compile_attack_plan,
    diagnose,
)
from repro.attacks.compromise import compromise_budget_ranking
from repro.detection import TomographyAuditor
from repro.routing import identifiability_report
from repro.topology import fat_tree_topology


def main() -> None:
    topology = fat_tree_topology(4)
    monitors = [n for n in topology.nodes() if n[0] in ("edge", "core")]
    scenario = Scenario.build(
        topology, monitors=monitors, redundancy=4, rng=3, name="fat-tree-4"
    )
    report = identifiability_report(scenario.path_set)
    print(
        f"fabric: {topology.num_nodes} switches, {topology.num_links} links; "
        f"{len(monitors)} monitors, {report.num_paths} paths, "
        f"rank {report.rank}/{report.num_links}"
    )

    # Compromised switch: aggregation switch 0 of pod 0.
    attacker = ("agg", 0, 0)
    context = scenario.attack_context([attacker])
    print(
        f"\ncompromised switch: {attacker} — controls "
        f"{len(context.controlled_links)} links, manipulates "
        f"{len(context.support)} of {context.num_paths} paths"
    )

    # Frame a core uplink in pod 1's aggregation layer.
    victim = topology.link_between(("agg", 1, 0), ("core", 0)).index
    outcome = ChosenVictimAttack(context, [victim], mode="paper").run()
    if not outcome.feasible:
        print("exclusive frame-up infeasible; trying any feasible victim ...")
        from repro import MaxDamageAttack

        outcome = MaxDamageAttack(context).run()
        victim = outcome.victim_links[0] if outcome.feasible else None
    if not outcome.feasible:
        print("no feasible victim for this switch")
        return
    victim_link = topology.link(victim)
    print(
        f"framed link: {victim_link.u} - {victim_link.v} "
        f"(damage {outcome.damage:.0f} ms across the fabric's probes)"
    )

    # Execute as packets; let the operator run tomography on the timings.
    plan = compile_attack_plan(
        scenario.path_set, [attacker], outcome.manipulation, cap=scenario.cap
    )
    sim = scenario.simulator(agents=plan.agents)
    record = sim.run_measurement(scenario.path_set, probes_per_path=3, rng=5)
    y = record.path_delay_vector()
    operator_view = diagnose(scenario.system.estimate(y), scenario.thresholds)
    blamed = [scenario.topology.link(j) for j in operator_view.abnormal]
    print(
        "operator's diagnosis from probe timings:",
        [f"{l.u}-{l.v}" for l in blamed] or "nothing abnormal",
    )

    audit = TomographyAuditor(scenario.path_set, alpha=200.0).audit(y)
    print(
        f"consistency audit: trustworthy={audit.trustworthy} "
        f"(residual {audit.detection.residual_l1:.1f} ms) — the fabric's "
        "path redundancy makes perfect cuts hard, so the frame-up leaves "
        "an inconsistency trail."
    )

    # How expensive would a *guaranteed, undetectable* frame-up be?
    ranking = compromise_budget_ranking(scenario.path_set, max_nodes=6)
    affordable = [r for r in ranking if r["budget"] is not None]
    if affordable:
        cheapest = affordable[0]
        link = topology.link(cheapest["link"])
        print(
            f"\ncheapest guaranteed frame-up in this fabric: link "
            f"{link.u}-{link.v} for {cheapest['budget']} compromised "
            f"switches ({cheapest['nodes']})"
        )
    else:
        print(
            "\nno link can be perfectly cut with <= 6 compromised switches — "
            "fat-tree redundancy pays off against guaranteed scapegoating."
        )
    impossible = sum(1 for r in ranking if r["budget"] is None)
    print(
        f"links with no perfect cut within 6 switches: {impossible} of {len(ranking)}"
    )


if __name__ == "__main__":
    main()
