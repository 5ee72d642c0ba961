"""Tests for the Fig. 7 / Fig. 8 experiment drivers (small scale)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.scenarios.experiments import (
    sample_victim,
    single_attacker_sweep,
    success_probability_sweep,
)
from repro.scenarios.scenario import Scenario
from repro.topology.generators.isp import synthetic_rocketfuel


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


def _mini_scenario(seed):
    topology = synthetic_rocketfuel(
        "mini",
        backbone_nodes=6,
        pops_per_backbone=2,
        access_per_pop=(1, 2),
        extra_backbone_chords=2,
        seed=seed,
    )
    return Scenario.build(topology, rng=seed, max_per_pair=3, name="mini")


def _reference_sample_victim(scenario, rng, forbidden):
    """The link-order scan ``sample_victim`` must keep reproducing."""
    measured = [
        link.index
        for link in scenario.topology.links()
        if link.u not in forbidden
        and link.v not in forbidden
        and scenario.path_set.paths_containing_link(link.index)
    ]
    if not measured:
        return None
    return int(measured[int(rng.integers(len(measured)))])


class TestSampleVictim:
    """Same victim and same stream use as the link-order scan, under churn."""

    @staticmethod
    def _assert_matches_scan(scenario, seed):
        nodes = scenario.topology.nodes()
        draws = np.random.default_rng(seed)
        forbidden_sets = [set(), set(nodes)] + [
            {nodes[int(i)] for i in draws.choice(len(nodes), size=size, replace=False)}
            for size in (1, 2, 3, 5)
        ]
        for forbidden in forbidden_sets:
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            victim = sample_victim(scenario, ours, forbidden)
            assert victim == _reference_sample_victim(scenario, theirs, forbidden)
            assert ours.integers(2**32) == theirs.integers(2**32)
            if forbidden == set(nodes):
                assert victim is None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_link_order_scan(self, seed):
        self._assert_matches_scan(_mini_scenario(seed), seed)

    def test_matches_after_append_and_remove(self):
        scenario = _mini_scenario(3)
        path_set = scenario.path_set
        # A path that alone measures some link: removing it changes the
        # candidates, appending it back restores them.
        row, link = next(
            (rows[0], link)
            for link in range(scenario.topology.num_links)
            if len(rows := path_set.paths_containing_link(link)) == 1
        )
        path = path_set.remove(row)
        assert link not in path_set.measured_links()
        self._assert_matches_scan(scenario, 3)
        path_set.append(path)
        assert link in path_set.measured_links()
        self._assert_matches_scan(scenario, 3)
