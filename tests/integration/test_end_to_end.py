"""End-to-end integration: LP plan -> packet simulator -> tomography -> audit.

These tests exercise the whole stack the way the examples do, asserting the
two measurement backends (analytic model and discrete-event simulator) drive
tomography to identical conclusions and that the audit pipeline's verdicts
match the attack's stealth level.
"""

import numpy as np
import pytest

from repro.attacks.chosen_victim import ChosenVictimAttack
from repro.attacks.max_damage import MaxDamageAttack
from repro.attacks.naive import NaiveDelayAttack
from repro.attacks.obfuscation import ObfuscationAttack
from repro.attacks.planner import compile_attack_plan
from repro.detection.auditor import TomographyAuditor
from repro.metrics.states import LinkState
from repro.tomography.diagnosis import diagnose


def _simulate_attack(scenario, attackers, outcome, probes=3, rng=0):
    plan = compile_attack_plan(
        scenario.path_set, attackers, outcome.manipulation, cap=scenario.cap
    )
    sim = scenario.simulator(agents=plan.agents)
    record = sim.run_measurement(scenario.path_set, probes_per_path=probes, rng=rng)
    return record.path_delay_vector()


class TestSimulatorMatchesAnalyticModel:
    @pytest.mark.parametrize("victim", [0, 9])
    def test_chosen_victim(self, fig1_scenario, victim):
        context = fig1_scenario.attack_context(["B", "C"])
        mode = "exclusive" if victim == 9 else "paper"
        outcome = ChosenVictimAttack(context, [victim], mode=mode).run()
        assert outcome.feasible
        y_sim = _simulate_attack(fig1_scenario, ["B", "C"], outcome)
        assert np.allclose(y_sim, outcome.observed_measurements, atol=1e-9)

    def test_obfuscation(self, fig1_scenario):
        context = fig1_scenario.attack_context(["B", "C"])
        outcome = ObfuscationAttack(context, min_victims=1).run()
        assert outcome.feasible
        y_sim = _simulate_attack(fig1_scenario, ["B", "C"], outcome)
        assert np.allclose(y_sim, outcome.observed_measurements, atol=1e-9)

    def test_naive(self, fig1_scenario):
        context = fig1_scenario.attack_context(["B", "C"])
        outcome = NaiveDelayAttack(context, per_path_delay=800.0).run()
        y_sim = _simulate_attack(fig1_scenario, ["B", "C"], outcome)
        assert np.allclose(y_sim, outcome.observed_measurements, atol=1e-9)


class TestOperatorViewFromSimulatedPackets:
    def test_scapegoat_blamed_from_packets(self, fig1_scenario):
        """The operator, given only simulated packet timings, blames the
        scapegoat — the paper's core claim reproduced end to end."""
        context = fig1_scenario.attack_context(["B", "C"])
        outcome = ChosenVictimAttack(context, [9], mode="exclusive").run()
        y_sim = _simulate_attack(fig1_scenario, ["B", "C"], outcome)
        report = diagnose(fig1_scenario.system.estimate(y_sim), fig1_scenario.thresholds)
        assert report.abnormal == (9,)
        for j in context.controlled_links:
            assert report.state_of(j) is LinkState.NORMAL

    def test_audit_catches_imperfect_cut_from_packets(self, fig1_scenario):
        context = fig1_scenario.attack_context(["B", "C"])
        outcome = ChosenVictimAttack(context, [9], mode="exclusive").run()
        y_sim = _simulate_attack(fig1_scenario, ["B", "C"], outcome)
        auditor = TomographyAuditor(fig1_scenario.path_set)
        assert not auditor.audit(y_sim).trustworthy

    def test_audit_fooled_by_stealthy_perfect_cut_from_packets(self, fig1_scenario):
        context = fig1_scenario.attack_context(["B", "C"])
        outcome = ChosenVictimAttack(context, [0], stealthy=True).run()
        y_sim = _simulate_attack(fig1_scenario, ["B", "C"], outcome)
        auditor = TomographyAuditor(fig1_scenario.path_set)
        report = auditor.audit(y_sim)
        assert report.trustworthy
        assert 0 in report.diagnosis.abnormal


class TestLadderScenario:
    def test_max_damage_full_pipeline(self, ladder_scenario):
        attackers = [("top", 1)]
        context = ladder_scenario.attack_context(attackers)
        outcome = MaxDamageAttack(context).run()
        if not outcome.feasible:
            pytest.skip("no feasible victim on this ladder draw")
        y_sim = _simulate_attack(ladder_scenario, attackers, outcome)
        assert np.allclose(y_sim, outcome.observed_measurements, atol=1e-9)
        report = diagnose(ladder_scenario.system.estimate(y_sim), ladder_scenario.thresholds)
        assert set(outcome.victim_links) <= set(report.abnormal)


class TestSmallIspScenario:
    def test_single_attacker_obfuscation_pipeline(self, small_isp_scenario):
        nodes = small_isp_scenario.topology.nodes()
        attacker = next(n for n in nodes if str(n).startswith("bb"))
        context = small_isp_scenario.attack_context([attacker])
        outcome = ObfuscationAttack(context, min_victims=1).run()
        if not outcome.feasible:
            pytest.skip("no obfuscatable victim for this attacker")
        y_sim = _simulate_attack(small_isp_scenario, [attacker], outcome)
        assert np.allclose(y_sim, outcome.observed_measurements, atol=1e-9)
