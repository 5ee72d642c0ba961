"""Tests for the frame-and-blur hybrid strategy."""

import pytest

from repro.attacks.hybrid import FrameAndBlurAttack
from repro.exceptions import AttackConstraintError
from repro.metrics.states import LinkState


class TestFrameAndBlur:
    def test_feasible_on_fig1(self, fig1_context):
        outcome = FrameAndBlurAttack(fig1_context, [9]).run()
        assert outcome.feasible
        assert outcome.strategy == "frame-and-blur"

    def test_victim_abnormal_attackers_uncertain(self, fig1_context):
        outcome = FrameAndBlurAttack(fig1_context, [9]).run()
        assert outcome.diagnosis.state_of(9) is LinkState.ABNORMAL
        for j in fig1_context.controlled_links:
            assert outcome.diagnosis.state_of(j) is LinkState.UNCERTAIN

    def test_extra_blur_links(self, fig1_context):
        outcome = FrameAndBlurAttack(fig1_context, [9], blur_links=[0, 8]).run()
        if outcome.feasible:
            assert outcome.diagnosis.state_of(0) is LinkState.UNCERTAIN
            assert outcome.diagnosis.state_of(8) is LinkState.UNCERTAIN

    def test_blur_set_always_includes_controlled(self, fig1_context):
        attack = FrameAndBlurAttack(fig1_context, [9])
        assert set(fig1_context.controlled_links) <= set(attack.blur_links)

    def test_damage_positive(self, fig1_context):
        outcome = FrameAndBlurAttack(fig1_context, [9]).run()
        assert outcome.damage > 0
        assert outcome.extras["blur_links"] == sorted(fig1_context.controlled_links)

    def test_constraint1_respected(self, fig1_context):
        outcome = FrameAndBlurAttack(fig1_context, [9]).run()
        support = set(fig1_context.support)
        for row in range(fig1_context.num_paths):
            if row not in support:
                assert abs(outcome.manipulation[row]) < 1e-9

    def test_validation(self, fig1_context):
        with pytest.raises(AttackConstraintError):
            FrameAndBlurAttack(fig1_context, [])
        with pytest.raises(AttackConstraintError):
            FrameAndBlurAttack(fig1_context, [1])  # attacker-controlled
        with pytest.raises(AttackConstraintError):
            FrameAndBlurAttack(fig1_context, [9], blur_links=[9])
        with pytest.raises(AttackConstraintError):
            FrameAndBlurAttack(fig1_context, [99])

    def test_stealthy_perfect_cut_variant(self, fig1_scenario, fig1_context):
        """Framing the perfectly-cut link 0 with blur, consistently."""
        import numpy as np

        outcome = FrameAndBlurAttack(fig1_context, [0], stealthy=True).run()
        if outcome.feasible:
            matrix = fig1_scenario.path_set.routing_matrix()
            projector = np.eye(matrix.shape[0]) - matrix @ fig1_context.system.estimator
            assert np.abs(projector @ outcome.manipulation).max() < 1e-6
