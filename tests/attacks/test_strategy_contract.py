"""Shared contract tests: every strategy obeys the same invariants.

Whatever the strategy, a feasible outcome must: satisfy Constraint 1
exactly, respect the per-path cap, compose observations as
``y' = y + m`` (eq. 3), report damage as ``||m||_1`` (Definition 2),
produce a diagnosis consistent with its own predicted estimate, and never
scapegoat an attacker-controlled link.
"""

import numpy as np
import pytest

from repro.attacks.chosen_victim import ChosenVictimAttack
from repro.attacks.constraints import validate_manipulation_vector
from repro.attacks.hybrid import FrameAndBlurAttack
from repro.attacks.max_damage import MaxDamageAttack
from repro.attacks.naive import NaiveDelayAttack
from repro.attacks.obfuscation import ObfuscationAttack
from repro.metrics.states import classify_vector
from repro.tomography.linear_system import LinearSystem


def _strategies(context):
    return {
        "chosen-victim-perfect": ChosenVictimAttack(context, [0]),
        "chosen-victim-imperfect": ChosenVictimAttack(context, [9], mode="exclusive"),
        "chosen-victim-stealthy": ChosenVictimAttack(context, [0], stealthy=True),
        "max-damage": MaxDamageAttack(context),
        "obfuscation": ObfuscationAttack(context, min_victims=1),
        "frame-and-blur": FrameAndBlurAttack(context, [9]),
        "naive": NaiveDelayAttack(context, per_path_delay=500.0),
    }


@pytest.fixture(scope="module")
def outcomes(fig1_context):
    results = {name: attack.run() for name, attack in _strategies(fig1_context).items()}
    for name, outcome in results.items():
        assert outcome.feasible, f"{name} unexpectedly infeasible"
    return results


class TestStrategyContract:
    def test_constraint1_and_cap(self, fig1_context, outcomes):
        for name, outcome in outcomes.items():
            validate_manipulation_vector(
                outcome.manipulation,
                fig1_context.support,
                fig1_context.num_paths,
                cap=fig1_context.cap,
            )

    def test_observation_composition(self, fig1_context, outcomes):
        honest = fig1_context.honest_measurements()
        for name, outcome in outcomes.items():
            assert np.allclose(
                outcome.observed_measurements, honest + outcome.manipulation
            ), name

    def test_damage_definition(self, outcomes):
        for name, outcome in outcomes.items():
            assert outcome.damage == pytest.approx(
                float(np.sum(outcome.manipulation))
            ), name

    def test_predicted_estimate_matches_operator_algebra(
        self, fig1_scenario, fig1_context, outcomes
    ):
        operator = LinearSystem(fig1_scenario.path_set.routing_matrix()).estimator
        for name, outcome in outcomes.items():
            expected = operator @ outcome.observed_measurements
            assert np.allclose(outcome.predicted_estimate, expected, atol=1e-8), name

    def test_diagnosis_consistent_with_estimate(self, fig1_scenario, outcomes):
        for name, outcome in outcomes.items():
            states = classify_vector(
                outcome.predicted_estimate, fig1_scenario.thresholds
            )
            assert list(states) == list(outcome.diagnosis.states), name

    def test_victims_never_attacker_controlled(self, fig1_context, outcomes):
        for name, outcome in outcomes.items():
            assert not (
                set(outcome.victim_links) & set(fig1_context.controlled_links)
            ), name

    def test_strategy_names_distinct(self, outcomes):
        names = {outcome.strategy for outcome in outcomes.values()}
        assert names == {
            "chosen-victim",
            "max-damage",
            "obfuscation",
            "frame-and-blur",
            "naive",
        }

    def test_nonzero_entries_only_on_attacker_paths(self, fig1_scenario, outcomes):
        for name, outcome in outcomes.items():
            for row, value in enumerate(outcome.manipulation):
                if value > 1e-9:
                    path = fig1_scenario.path_set.path(row)
                    assert path.contains_any_node({"B", "C"}), (name, row)
