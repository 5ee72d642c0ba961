"""Tests for chosen-victim scapegoating."""

import numpy as np
import pytest

from repro.attacks.base import AttackContext
from repro.attacks.chosen_victim import ChosenVictimAttack, build_chosen_victim_bands
from repro.attacks.constraints import validate_manipulation_vector
from repro.attacks.lp import BandConstraints
from repro.exceptions import AttackConstraintError, ValidationError
from repro.metrics.states import LinkState, StateThresholds


class TestValidation:
    def test_victim_overlapping_controlled_rejected(self, fig1_context):
        # Link 3 (A-C) is incident to attacker C.
        with pytest.raises(AttackConstraintError, match="disjoint"):
            ChosenVictimAttack(fig1_context, [3])

    def test_empty_victims_rejected(self, fig1_context):
        with pytest.raises(AttackConstraintError):
            ChosenVictimAttack(fig1_context, [])

    def test_out_of_range_victim(self, fig1_context):
        with pytest.raises(AttackConstraintError):
            ChosenVictimAttack(fig1_context, [99])

    def test_bad_mode(self, fig1_context):
        with pytest.raises(ValidationError):
            ChosenVictimAttack(fig1_context, [9], mode="bogus")


class TestPerfectCutVictim:
    """Link 0 (M1-A) is perfectly cut by B and C: attack must succeed."""

    @pytest.mark.parametrize("mode", ["paper", "exclusive"])
    def test_success(self, fig1_context, mode):
        outcome = ChosenVictimAttack(fig1_context, [0], mode=mode).run()
        assert outcome.feasible
        assert outcome.damage > 0

    def test_victim_looks_abnormal(self, fig1_context):
        outcome = ChosenVictimAttack(fig1_context, [0]).run()
        assert outcome.diagnosis.state_of(0) is LinkState.ABNORMAL

    def test_attacker_links_look_normal(self, fig1_context):
        outcome = ChosenVictimAttack(fig1_context, [0]).run()
        for j in fig1_context.controlled_links:
            assert outcome.diagnosis.state_of(j) is LinkState.NORMAL

    def test_manipulation_satisfies_constraint1(self, fig1_context):
        outcome = ChosenVictimAttack(fig1_context, [0]).run()
        validate_manipulation_vector(
            outcome.manipulation,
            fig1_context.support,
            fig1_context.num_paths,
            cap=fig1_context.cap,
        )

    def test_cap_respected(self, fig1_context):
        outcome = ChosenVictimAttack(fig1_context, [0]).run()
        assert float(outcome.manipulation.max()) <= fig1_context.cap + 1e-6

    def test_observed_equals_honest_plus_m(self, fig1_context):
        outcome = ChosenVictimAttack(fig1_context, [0]).run()
        expected = fig1_context.honest_measurements() + outcome.manipulation
        assert np.allclose(outcome.observed_measurements, expected)


class TestImperfectCutVictim:
    """Link 9 (D-M2) is NOT perfectly cut — the paper's Fig. 4 case."""

    def test_still_succeeds(self, fig1_context):
        outcome = ChosenVictimAttack(fig1_context, [9], mode="exclusive").run()
        assert outcome.feasible
        assert outcome.diagnosis.state_of(9) is LinkState.ABNORMAL

    def test_exclusive_mode_blames_only_victim(self, fig1_context):
        outcome = ChosenVictimAttack(fig1_context, [9], mode="exclusive").run()
        assert outcome.diagnosis.abnormal == (9,)

    def test_exclusive_damage_not_above_paper_mode(self, fig1_context):
        loose = ChosenVictimAttack(fig1_context, [9], mode="paper").run()
        strict = ChosenVictimAttack(fig1_context, [9], mode="exclusive").run()
        assert strict.damage <= loose.damage + 1e-6

    def test_confined_stealthy_imperfect_cut_infeasible(self, fig1_context):
        """Estimate changes confined to L_m ∪ L_s *and* measurement
        consistency cannot coexist with an uncut victim path: the victim's
        shift would have to show on a path the attacker cannot touch —
        the Theorem 3 proof situation."""
        outcome = ChosenVictimAttack(
            fig1_context, [9], confined=True, stealthy=True
        ).run()
        assert not outcome.feasible

    def test_confined_perfect_cut_feasible(self, fig1_context):
        outcome = ChosenVictimAttack(fig1_context, [0], confined=True).run()
        assert outcome.feasible


class TestStealth:
    def test_stealthy_perfect_cut_zero_residual(self, fig1_scenario, fig1_context):
        outcome = ChosenVictimAttack(fig1_context, [0], stealthy=True).run()
        assert outcome.feasible
        matrix = fig1_scenario.path_set.routing_matrix()
        projector = np.eye(matrix.shape[0]) - matrix @ fig1_context.system.estimator
        assert np.abs(projector @ outcome.manipulation).max() < 1e-6

    def test_stealthy_damage_not_above_plain(self, fig1_context):
        plain = ChosenVictimAttack(fig1_context, [0]).run()
        stealthy = ChosenVictimAttack(fig1_context, [0], stealthy=True).run()
        assert stealthy.damage <= plain.damage + 1e-6


class TestMultiVictim:
    def test_two_free_victims(self, fig1_context):
        outcome = ChosenVictimAttack(fig1_context, [8, 9], mode="paper").run()
        if outcome.feasible:
            assert outcome.diagnosis.state_of(8) is LinkState.ABNORMAL
            assert outcome.diagnosis.state_of(9) is LinkState.ABNORMAL

    def test_adding_victims_never_raises_damage(self, fig1_context):
        """Feasible region shrinks with more required victims."""
        single = ChosenVictimAttack(fig1_context, [9], mode="paper").run()
        double = ChosenVictimAttack(fig1_context, [8, 9], mode="paper").run()
        if double.feasible:
            assert double.damage <= single.damage + 1e-6


class TestOutcomeMetadata:
    def test_strategy_name(self, fig1_context):
        outcome = ChosenVictimAttack(fig1_context, [0]).run()
        assert outcome.strategy == "chosen-victim"
        assert outcome.victim_links == (0,)
        assert outcome.extras["mode"] == "paper"

    def test_mean_path_measurement(self, fig1_context):
        outcome = ChosenVictimAttack(fig1_context, [0]).run()
        assert outcome.mean_path_measurement == pytest.approx(
            float(np.mean(outcome.observed_measurements))
        )

    def test_infeasible_outcome_fields(self, fig1_context):
        outcome = ChosenVictimAttack(
            fig1_context, [9], confined=True, stealthy=True
        ).run()
        assert not outcome.feasible
        assert outcome.manipulation is None
        assert outcome.damage == 0.0
        assert outcome.diagnosis is None
        assert np.isnan(outcome.mean_path_measurement)


def _reference_bands(context, victim_links, mode, confined):
    """The per-link loop ``build_chosen_victim_bands`` must reproduce."""
    bands = BandConstraints.unbounded(context.num_links)
    normal_bound = context.thresholds.lower - context.margin
    abnormal_bound = context.thresholds.upper + context.margin
    for j in context.controlled_links:
        bands.require_at_most(j, normal_bound)
    for j in victim_links:
        bands.require_at_least(j, abnormal_bound)
    if mode == "exclusive":
        victims = set(victim_links)
        for j in range(context.num_links):
            if j not in victims:
                bands.require_at_most(j, normal_bound)
    if confined:
        touched = set(victim_links) | set(context.controlled_links)
        for j in range(context.num_links):
            if j not in touched:
                value = float(context.baseline_estimate[j])
                bands.require_at_least(j, value)
                bands.require_at_most(j, value)
    return bands


class TestBandsMatchTheLinkLoop:
    @pytest.mark.parametrize("mode", ["paper", "exclusive"])
    @pytest.mark.parametrize("confined", [False, True])
    @pytest.mark.parametrize("num_victims", [0, 1, 2])
    def test_bounds_equal(self, fig1_context, small_isp_scenario, mode, confined, num_victims):
        isp_context = small_isp_scenario.attack_context(
            small_isp_scenario.topology.nodes()[:2]
        )
        # b_l at the median metric, so confined exclusive bands must take
        # min(b_l - margin, x*_j) on the links above it.
        low_bar_context = AttackContext(
            small_isp_scenario.path_set,
            small_isp_scenario.true_metrics,
            small_isp_scenario.topology.nodes()[:2],
            thresholds=StateThresholds(
                lower=float(np.median(small_isp_scenario.true_metrics)), upper=800.0
            ),
        )
        for context in (fig1_context, isp_context, low_bar_context):
            free = [j for j in range(context.num_links) if j not in context.controlled_links]
            victims = tuple(free[-num_victims:]) if num_victims else ()
            bands = build_chosen_victim_bands(context, victims, mode, confined=confined)
            reference = _reference_bands(context, victims, mode, confined)
            assert np.array_equal(bands.lower, reference.lower)
            assert np.array_equal(bands.upper, reference.upper)
