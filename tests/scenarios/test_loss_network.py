"""Tests for loss-domain scenarios (Remark 2's extension)."""

import numpy as np
import pytest

from repro.attacks.chosen_victim import ChosenVictimAttack
from repro.exceptions import AttackConstraintError
from repro.measurement.simulator.network_sim import NetworkSimulator
from repro.scenarios.loss_network import (
    compile_loss_attack_plan,
    loss_chosen_victim_case_study,
    paper_fig1_loss_scenario,
)


@pytest.fixture(scope="module")
def loss_scenario():
    return paper_fig1_loss_scenario()


class TestLossScenario:
    def test_metrics_are_log_domain(self, loss_scenario):
        assert np.all(loss_scenario.true_metrics >= 0.0)
        # Routine loss <= 1% -> metric <= -log(0.99).
        assert float(loss_scenario.true_metrics.max()) <= -np.log(0.99) + 1e-12

    def test_thresholds_in_log_domain(self, loss_scenario):
        assert loss_scenario.thresholds.lower == pytest.approx(-np.log(0.95))
        assert loss_scenario.thresholds.upper == pytest.approx(-np.log(0.5))

    def test_same_paths_as_delay_scenario(self, loss_scenario, fig1_scenario):
        assert [p.nodes for p in loss_scenario.path_set] == [
            p.nodes for p in fig1_scenario.path_set
        ]

    def test_deterministic(self):
        a = paper_fig1_loss_scenario(seed=1)
        b = paper_fig1_loss_scenario(seed=1)
        assert np.array_equal(a.true_metrics, b.true_metrics)


class TestLossAttackPlanning:
    def test_chosen_victim_feasible_in_log_domain(self, loss_scenario):
        context = loss_scenario.attack_context(["B", "C"])
        outcome = ChosenVictimAttack(context, [9], mode="exclusive").run()
        assert outcome.feasible
        assert outcome.diagnosis.abnormal == (9,)

    def test_plan_compiles_to_drop_agents(self, loss_scenario):
        context = loss_scenario.attack_context(["B", "C"])
        outcome = ChosenVictimAttack(context, [9], mode="exclusive").run()
        agents = compile_loss_attack_plan(loss_scenario, ["B", "C"], outcome.manipulation)
        assert set(agents) <= {"B", "C"}
        for agent in agents.values():
            for action in agent.actions.values():
                assert 0.0 < action.drop_probability < 1.0
                assert action.extra_delay == 0.0

    def test_off_support_manipulation_rejected(self, loss_scenario):
        m = np.zeros(loss_scenario.path_set.num_paths)
        support = set(loss_scenario.path_set.paths_containing_any_node({"B", "C"}))
        off = next(i for i in range(len(m)) if i not in support)
        m[off] = 0.5
        with pytest.raises(AttackConstraintError, match="no attacker"):
            compile_loss_attack_plan(loss_scenario, ["B", "C"], m)


class TestSimulatedLossMeasurement:
    def test_expected_delivery_matches_link_products(self, loss_scenario):
        """Honest loss measurement: delivery ~ product of link survivals."""
        loss_rates = 1.0 - np.exp(-loss_scenario.true_metrics)
        sim = NetworkSimulator(
            loss_scenario.topology,
            np.ones(loss_scenario.topology.num_links),
            link_loss=loss_rates,
        )
        record = sim.run_measurement(
            loss_scenario.path_set, probes_per_path=4000, rng=0
        )
        measured = record.delivery_ratio_vector()
        matrix = loss_scenario.path_set.routing_matrix()
        expected = np.exp(-(matrix @ loss_scenario.true_metrics))
        assert np.allclose(measured, expected, atol=0.02)

    def test_case_study_blames_victim_from_packet_drops(self):
        record = loss_chosen_victim_case_study(probes_per_path=3000)
        assert record["feasible"]
        assert not record["perfect_cut"]
        assert record["planned_abnormal"] == [9]
        assert record["measured_abnormal"] == [9]
        # The scapegoat looks badly lossy though its true delivery is ~99%.
        assert record["victim_delivery_estimate"] < 0.5

    def test_case_study_attacker_links_look_clean(self):
        """Attackers never look abnormal; sampling noise may push a link at
        the planned normal boundary into 'uncertain', but most stay normal."""
        record = loss_chosen_victim_case_study(probes_per_path=3000)
        measured = record["measured_diagnosis"]
        states = [str(measured.state_of(j)) for j in range(1, 8)]
        assert "abnormal" not in states
        assert states.count("normal") >= 5
