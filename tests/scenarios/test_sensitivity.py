"""Tests for the attacker-knowledge sensitivity driver."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.scenarios.sensitivity import knowledge_sensitivity_experiment


class TestKnowledgeSensitivity:
    @pytest.fixture(scope="class")
    def result(self, fig1_scenario):
        return knowledge_sensitivity_experiment(
            fig1_scenario,
            ["B", "C"],
            [9],
            knowledge_sigmas=(0.0, 5.0, 200.0),
            num_trials=8,
            seed=1,
        )

    def test_structure(self, result):
        assert [r["sigma"] for r in result["rows"]] == [0.0, 5.0, 200.0]
        for row in result["rows"]:
            assert 0.0 <= row["planned_rate"] <= 1.0
            assert row["realised_rate"] <= row["planned_rate"] + 1e-9

    def test_perfect_knowledge_always_works(self, result):
        zero = result["rows"][0]
        assert zero["planned_rate"] == 1.0
        assert zero["realised_rate"] == 1.0

    def test_boundary_hugging_optima_are_fragile(self, result):
        """With the default 1 ms margin, small knowledge errors already
        break the realised attack — the LP plans on the band boundary."""
        small = result["rows"][1]
        assert small["realised_rate"] <= 0.5

    def test_generous_margin_buys_robustness(self, fig1_scenario):
        robust = knowledge_sensitivity_experiment(
            fig1_scenario,
            ["B", "C"],
            [9],
            knowledge_sigmas=(5.0,),
            num_trials=8,
            margin=25.0,
            seed=1,
        )
        assert robust["rows"][0]["realised_rate"] >= 0.9
        assert robust["margin"] == 25.0

    def test_huge_error_breaks_the_attack(self, result):
        huge = result["rows"][2]
        assert huge["realised_rate"] < result["rows"][0]["realised_rate"]

    def test_negative_sigma_rejected(self, fig1_scenario):
        with pytest.raises(ValidationError):
            knowledge_sensitivity_experiment(
                fig1_scenario, ["B", "C"], [9], knowledge_sigmas=(-1.0,), num_trials=2
            )

    def test_deterministic(self, fig1_scenario):
        a = knowledge_sensitivity_experiment(
            fig1_scenario, ["B", "C"], [9], knowledge_sigmas=(3.0,), num_trials=5, seed=4
        )
        b = knowledge_sensitivity_experiment(
            fig1_scenario, ["B", "C"], [9], knowledge_sigmas=(3.0,), num_trials=5, seed=4
        )
        assert a["rows"] == b["rows"]

    def test_equal_seeds_give_equal_rows(self, fig1_scenario):
        """Each noise level seeds from a stream spawned off ``seed``, not
        from the seed object's identity: two live, equal SeedSequences and
        the int they wrap give the same rows."""
        rows = [
            knowledge_sensitivity_experiment(
                fig1_scenario,
                ["B", "C"],
                [9],
                knowledge_sigmas=(1.0, 2.0, 3.0),
                num_trials=8,
                seed=seed,
            )["rows"]
            for seed in (np.random.SeedSequence(4), np.random.SeedSequence(4), 4)
        ]
        assert rows[0] == rows[1] == rows[2]
