"""Extension — scapegoating over a multi-epoch measurement campaign.

An operator running tomography periodically acts on *persistent*
anomalies.  This bench runs a 20-epoch campaign (no path churn) against
the Fig. 1 scenario for three attacker profiles and reports what the
operator's logbook shows: the stealthy perfect-cut attacker frames link 1
(index 0) in every epoch and is never detected; the imperfect-cut attacker
is caught from its first active epoch; an intermittent attacker is caught
exactly in its active epochs.
"""

from repro.attacks.chosen_victim import ChosenVictimAttack
from repro.reporting.tables import format_table
from repro.scenarios.streaming import ChurnEvent, StreamingCampaign

EPOCHS = 20


def test_ext_campaign_timeline(benchmark, fig1_scenario, record):
    def run():
        context = fig1_scenario.attack_context(["B", "C"])
        stealthy = ChosenVictimAttack(context, [0], stealthy=True).run()
        loud = ChosenVictimAttack(context, [9], mode="exclusive").run()

        def campaign(outcome):
            return StreamingCampaign(
                fig1_scenario,
                attacker_nodes=["B", "C"],
                attack_factory=lambda _context: outcome,
            )

        schedule = [ChurnEvent()] * EPOCHS
        return {
            "stealthy": campaign(stealthy).run(schedule, rng=0),
            "persistent": campaign(loud).run(schedule, rng=0),
            "intermittent": campaign(loud).run(
                schedule, active_epochs=[3, 7, 8, 15], rng=0
            ),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for label, result in results.items():
        latency = result.detection_latency()
        rows.append(
            [
                label,
                len(result.attacked_epochs),
                len(result.detected_epochs),
                latency if latency is not None else "never",
                result.most_blamed_link(),
                max(result.blame_counts.values(), default=0),
            ]
        )
    text = (
        f"Extension: {EPOCHS}-epoch measurement campaigns (Fig. 1 scenario)\n"
        + format_table(
            [
                "attacker",
                "attacked epochs",
                "detected epochs",
                "detection latency",
                "most blamed link",
                "blame epochs",
            ],
            rows,
        )
    )
    record("ext_campaign", text)

    stealthy = results["stealthy"]
    assert stealthy.detected_epochs == ()
    assert stealthy.most_blamed_link() == 0
    assert stealthy.blame_counts[0] == EPOCHS

    persistent = results["persistent"]
    assert persistent.detection_latency() == 0
    assert len(persistent.detected_epochs) == EPOCHS

    intermittent = results["intermittent"]
    assert set(intermittent.detected_epochs) == {3, 7, 8, 15}
    assert intermittent.false_alarm_epochs == ()
