"""Tests for obfuscation attacks."""

import numpy as np
import pytest

from repro.attacks.obfuscation import ObfuscationAttack, build_obfuscation_bands
from repro.exceptions import ValidationError
from repro.metrics.states import LinkState


class TestBuildObfuscationBands:
    def test_paper_mode_pins_only_the_obfuscated_set(self, fig1_context):
        bands = build_obfuscation_bands(fig1_context, [3, 5])
        lower = fig1_context.thresholds.lower + fig1_context.margin
        upper = fig1_context.thresholds.upper - fig1_context.margin
        for j in (3, 5):
            assert bands.lower[j] == lower
            assert bands.upper[j] == upper
        others = [j for j in range(fig1_context.num_links) if j not in (3, 5)]
        assert np.all(np.isinf(bands.upper[others]))

    def test_exclusive_mode_bounds_every_other_link_normal(self, fig1_context):
        bands = build_obfuscation_bands(fig1_context, [3], mode="exclusive")
        normal = fig1_context.thresholds.lower - fig1_context.margin
        others = [j for j in range(fig1_context.num_links) if j != 3]
        assert np.all(bands.upper[others] <= normal)


class TestObfuscation:
    def test_fig1_all_links_uncertain(self, fig1_context):
        """B and C can push the whole network into the uncertain band."""
        outcome = ObfuscationAttack(fig1_context, min_victims=1).run()
        assert outcome.feasible
        for j in list(outcome.victim_links) + sorted(fig1_context.controlled_links):
            assert outcome.diagnosis.state_of(j) is LinkState.UNCERTAIN

    def test_victims_exclude_controlled(self, fig1_context):
        outcome = ObfuscationAttack(fig1_context, min_victims=1).run()
        assert not set(outcome.victim_links) & set(fig1_context.controlled_links)

    def test_min_victims_enforced(self, fig1_context):
        """Only 3 non-controlled links exist, so demanding 5 must fail."""
        outcome = ObfuscationAttack(fig1_context, min_victims=5).run()
        assert not outcome.feasible

    def test_max_victims_caps_growth(self, fig1_context):
        outcome = ObfuscationAttack(fig1_context, min_victims=1, max_victims=1).run()
        assert outcome.feasible
        assert len(outcome.victim_links) == 1

    def test_damage_positive(self, fig1_context):
        outcome = ObfuscationAttack(fig1_context, min_victims=1).run()
        assert outcome.damage > 0

    def test_exclusive_mode_keeps_others_normal(self, fig1_context):
        outcome = ObfuscationAttack(
            fig1_context, min_victims=1, max_victims=1, mode="exclusive"
        ).run()
        if outcome.feasible:
            obfuscated = set(outcome.victim_links) | set(fig1_context.controlled_links)
            for j in range(fig1_context.num_links):
                if j not in obfuscated:
                    assert outcome.diagnosis.state_of(j) is LinkState.NORMAL

    def test_greedy_is_monotone(self, fig1_context):
        """Growing max_victims never decreases the accepted victim count."""
        small = ObfuscationAttack(fig1_context, min_victims=1, max_victims=1).run()
        large = ObfuscationAttack(fig1_context, min_victims=1).run()
        assert len(large.victim_links) >= len(small.victim_links)

    def test_candidate_restriction(self, fig1_context):
        outcome = ObfuscationAttack(
            fig1_context, min_victims=1, candidate_links=[9]
        ).run()
        if outcome.feasible:
            assert outcome.victim_links == (9,)

    def test_controlled_candidate_rejected(self, fig1_context):
        with pytest.raises(ValidationError, match="attacker-controlled"):
            ObfuscationAttack(fig1_context, candidate_links=[1])

    def test_validation(self, fig1_context):
        with pytest.raises(ValidationError):
            ObfuscationAttack(fig1_context, min_victims=0)
        with pytest.raises(ValidationError):
            ObfuscationAttack(fig1_context, min_victims=3, max_victims=2)
        with pytest.raises(ValidationError):
            ObfuscationAttack(fig1_context, mode="bogus")

    def test_extras_record_search(self, fig1_context):
        outcome = ObfuscationAttack(fig1_context, min_victims=1).run()
        assert outcome.extras["num_victims"] == len(outcome.victim_links)
        assert outcome.extras["min_victims"] == 1
