"""Ablation — does a different estimator defeat scapegoating?

A cautious operator might swap eq. (2)'s least squares for non-negative
least squares or ridge regression.  Against a stealthy perfect-cut attack
this does not help: the forged measurements are *exactly consistent* with
a legitimate (non-negative) metric vector in which the scapegoat is bad,
so every reasonable estimator reaches the same wrong conclusion.  The
bench quantifies this: all three estimators blame the scapegoat and give
the attacker links a clean bill.
"""

from repro.attacks.chosen_victim import ChosenVictimAttack
from repro.metrics.states import LinkState
from repro.reporting.tables import format_table
from repro.tomography.diagnosis import diagnose
from repro.tomography.estimator_zoo import resolve_estimator


def test_ablation_estimators_vs_stealthy_attack(benchmark, fig1_scenario, record):
    def run():
        context = fig1_scenario.attack_context(["B", "C"])
        outcome = ChosenVictimAttack(context, [0], stealthy=True, confined=True).run()
        assert outcome.feasible
        matrix = fig1_scenario.path_set.routing_matrix()
        estimators = {
            "least-squares (paper eq. 2)": resolve_estimator("ls", routing_matrix=matrix),
            "non-negative LS": resolve_estimator("nnls", routing_matrix=matrix),
            "ridge (lam=1e-3)": resolve_estimator(
                "ridge", routing_matrix=matrix, lam=1e-3
            ),
        }
        rows = []
        for label, estimator in estimators.items():
            report = diagnose(
                estimator.estimate(outcome.observed_measurements),
                fig1_scenario.thresholds,
            )
            clean_attackers = all(
                report.state_of(j) is LinkState.NORMAL
                for j in context.controlled_links
            )
            rows.append(
                {
                    "estimator": label,
                    "victim_estimate": float(report.estimate[0]),
                    "blames_scapegoat": 0 in report.abnormal,
                    "attackers_look_normal": clean_attackers,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["estimator", "victim estimate (ms)", "blames scapegoat", "attackers normal"],
        [
            [r["estimator"], r["victim_estimate"], r["blames_scapegoat"], r["attackers_look_normal"]]
            for r in rows
        ],
    )
    record(
        "ablation_estimators",
        "Ablation: estimator choice vs stealthy perfect-cut scapegoating\n" + table,
    )

    for row in rows:
        assert row["blames_scapegoat"], row
        assert row["attackers_look_normal"], row
