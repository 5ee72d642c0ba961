"""Tests for the Fig. 7 / Fig. 8 experiment drivers (small scale)."""

import pytest

from repro.exceptions import ValidationError
from repro.scenarios.experiments import (
    single_attacker_sweep,
    success_probability_sweep,
)


class TestSuccessProbabilitySweep:
    def test_structure_and_determinism(self, small_isp_scenario):
        a = success_probability_sweep(small_isp_scenario, num_trials=20, seed=5)
        b = success_probability_sweep(small_isp_scenario, num_trials=20, seed=5)
        assert a["overall_success"] == b["overall_success"]
        assert len(a["bins"]) == 10
        assert a["scenario"]["name"] == "mini-isp"
        for trial in a["trials"]:
            assert 0.0 <= trial["presence_ratio"] <= 1.0
            assert isinstance(trial["success"], bool)

    def test_perfect_cut_trials_always_succeed(self, small_isp_scenario):
        result = success_probability_sweep(small_isp_scenario, num_trials=60, seed=2)
        perfect = [t for t in result["trials"] if t["perfect_cut"]]
        for trial in perfect:
            assert trial["presence_ratio"] == 1.0
            assert trial["success"]

    def test_confined_success_implies_unconfined(self, small_isp_scenario):
        """The unconfined feasible set contains the confined one."""
        confined = success_probability_sweep(
            small_isp_scenario, num_trials=30, confined=True, mode="paper", seed=4
        )
        unconfined = success_probability_sweep(
            small_isp_scenario, num_trials=30, confined=False, mode="paper", seed=4
        )
        for a, b in zip(confined["trials"], unconfined["trials"]):
            if a["success"]:
                assert b["success"]

    def test_empty_attacker_sizes_rejected(self, small_isp_scenario):
        with pytest.raises(ValidationError):
            success_probability_sweep(small_isp_scenario, attacker_sizes=())


class TestSingleAttackerSweep:
    def test_structure(self, small_isp_scenario):
        result = single_attacker_sweep(
            small_isp_scenario, num_trials=10, min_obfuscation_victims=2, seed=1
        )
        assert 0.0 <= result["max_damage_success_rate"] <= 1.0
        assert 0.0 <= result["obfuscation_success_rate"] <= 1.0
        assert len(result["trials"]) == 10
        for trial in result["trials"]:
            assert trial["obfuscation_victims"] >= 0

    def test_obfuscation_success_needs_min_victims(self, small_isp_scenario):
        result = single_attacker_sweep(
            small_isp_scenario, num_trials=10, min_obfuscation_victims=2, seed=1
        )
        for trial in result["trials"]:
            if trial["obfuscation_success"]:
                assert trial["obfuscation_victims"] >= 2

    def test_deterministic(self, small_isp_scenario):
        a = single_attacker_sweep(small_isp_scenario, num_trials=6, seed=9)
        b = single_attacker_sweep(small_isp_scenario, num_trials=6, seed=9)
        assert a["max_damage_success_rate"] == b["max_damage_success_rate"]
        assert [t["attacker"] for t in a["trials"]] == [
            t["attacker"] for t in b["trials"]
        ]

    def test_successful_max_damage_has_positive_damage(self, small_isp_scenario):
        result = single_attacker_sweep(small_isp_scenario, num_trials=10, seed=3)
        for trial in result["trials"]:
            if trial["max_damage_success"]:
                assert trial["max_damage"] > 0
