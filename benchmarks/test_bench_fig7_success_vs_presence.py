"""Fig. 7 — chosen-victim success probability vs attack presence ratio.

Paper: on the Rocketfuel AS1221 wireline topology and a 100-node RGG
wireless topology, the success probability of chosen-victim scapegoating
rises with the attack presence ratio (e.g. 19.5% at ratio ~0.6 rising to
51.2% at ~0.7 on wireline) and the sparser wireless topology tracks below
the wireline one.

Shape targets: monotone-increasing trend in the ratio (low bins below high
bins) and, where Theorem 1's premise holds (R has full column rank), every
perfect-cut trial succeeds.  The wireline map meets the premise (rank 166
of 166 links); the wireless RGG does not (rank 225 of 234), and there a
perfect-cut victim outside the identifiable span is correctly infeasible.
The paper's
*cross-network* ordering (wireless below wireline) is not asserted: it is
not stable in our reconstruction, because the synthetic ISP's leaf-heavy
access layer makes sampled presence ratios bimodal (an attacker either
fully covers an access link's few paths or misses them entirely), which
thins the mid bins the comparison would need.  EXPERIMENTS.md records the
deviation.
"""

import math

import pytest

from repro.reporting.figures import format_success_bins
from repro.scenarios.experiments import success_probability_sweep
from repro.tomography.linear_system import LinearSystem

pytestmark = pytest.mark.slow

NUM_TRIALS = 400


def _mean_rate(bins, lo, hi):
    rates = [
        b["rate"]
        for b in bins
        if lo <= b["lo"] and b["hi"] <= hi and b["count"] > 0 and not math.isnan(b["rate"])
    ]
    return sum(rates) / len(rates) if rates else math.nan


def _identifiable(scenario) -> bool:
    """Theorem 1's premise: every link metric is identifiable."""
    system = LinearSystem(scenario.path_set.routing_matrix())
    return system.rank == scenario.topology.num_links


def test_fig7_success_vs_presence_ratio(
    benchmark, wireline_scenario, wireless_scenario, record
):
    def run():
        wireline = success_probability_sweep(
            wireline_scenario, num_trials=NUM_TRIALS, seed=7
        )
        wireless = success_probability_sweep(
            wireless_scenario, num_trials=NUM_TRIALS, seed=7
        )
        return wireline, wireless

    wireline, wireless = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "\n\n".join(
        [
            format_success_bins(
                wireline["bins"],
                title=(
                    "Fig. 7 regeneration — wireline (synthetic AS1221): "
                    "chosen-victim success vs presence ratio"
                ),
            ),
            format_success_bins(
                wireless["bins"],
                title="Fig. 7 regeneration — wireless (RGG n=100, lambda=5)",
            ),
        ]
    )
    record("fig7_success_vs_presence", text)

    assert _identifiable(wireline_scenario), "wireline R must have full column rank"
    for scenario, result in ((wireline_scenario, wireline), (wireless_scenario, wireless)):
        if _identifiable(scenario):
            for trial in result["trials"]:
                if trial["perfect_cut"]:
                    assert trial["success"], (
                        "Theorem 1 (R has full column rank): a perfect cut "
                        "must make the attack feasible"
                    )
        # Increasing trend: the low-ratio half is weaker than the top bins.
        low = _mean_rate(result["bins"], 0.0, 0.5)
        high = _mean_rate(result["bins"], 0.8, 1.0)
        assert math.isnan(low) or math.isnan(high) or low <= high
