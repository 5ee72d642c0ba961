"""Tests for the defence-experiment drivers."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.scenarios.defense_experiments import (
    path_selection_defense_experiment,
    robust_recovery_experiment,
)
from repro.topology.generators.simple import grid_topology


class TestRobustRecovery:
    def test_structure(self, fig1_scenario):
        result = robust_recovery_experiment(
            fig1_scenario, tamper_counts=(1, 3), num_trials=5, seed=1
        )
        assert [r["tampered_rows"] for r in result["rows"]] == [1, 3]
        for row in result["rows"]:
            assert row["ls_error"] >= 0.0
            assert row["robust_error"] >= 0.0
            assert 0.0 <= row["found_all_rate"] <= 1.0

    def test_robust_beats_plain_ls_lightly_tampered(self, fig1_scenario):
        result = robust_recovery_experiment(
            fig1_scenario, tamper_counts=(1,), num_trials=10, seed=2
        )
        row = result["rows"][0]
        assert row["robust_error"] < row["ls_error"]

    def test_bad_tamper_count(self, fig1_scenario):
        with pytest.raises(ValidationError):
            robust_recovery_experiment(
                fig1_scenario, tamper_counts=(0,), num_trials=2
            )
        with pytest.raises(ValidationError):
            robust_recovery_experiment(
                fig1_scenario, tamper_counts=(999,), num_trials=2
            )

    def test_deterministic(self, fig1_scenario):
        a = robust_recovery_experiment(
            fig1_scenario, tamper_counts=(2,), num_trials=5, seed=7
        )
        b = robust_recovery_experiment(
            fig1_scenario, tamper_counts=(2,), num_trials=5, seed=7
        )
        assert a["rows"] == b["rows"]

    def test_equal_seeds_give_equal_rows(self, fig1_scenario):
        """Each tamper count seeds from a stream spawned off ``seed``, not
        from the seed object's identity: two live, equal SeedSequences and
        the int they wrap give the same rows."""
        rows = [
            robust_recovery_experiment(
                fig1_scenario, tamper_counts=(2, 3), num_trials=5, seed=seed
            )["rows"]
            for seed in (np.random.SeedSequence(5), np.random.SeedSequence(5), 5)
        ]
        assert rows[0] == rows[1] == rows[2]


class TestPathSelectionDefense:
    @pytest.fixture(scope="class")
    def result(self):
        topo = grid_topology(4, 4)
        monitors = [
            (0, 0), (0, 3), (3, 0), (3, 3), (1, 1), (2, 2), (0, 1),
            (1, 0), (2, 3), (3, 2), (0, 2), (2, 0), (1, 3), (3, 1),
        ]
        return path_selection_defense_experiment(topo, monitors, num_trials=12, seed=2)

    def test_both_strategies_reported(self, result):
        labels = {r["selection"] for r in result["records"]}
        assert labels == {"rank-greedy", "min-presence"}

    def test_min_presence_flattens_load(self, result):
        by_label = {r["selection"]: r for r in result["records"]}
        assert (
            by_label["min-presence"]["max_presence"]
            <= by_label["rank-greedy"]["max_presence"]
        )

    def test_success_rates_in_range(self, result):
        for record in result["records"]:
            assert 0.0 <= record["attack_success"] <= 1.0
