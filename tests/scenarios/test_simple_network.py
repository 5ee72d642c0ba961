"""Tests for the Section V-B case studies (Figs. 4-6)."""

import numpy as np

from repro.scenarios.simple_network import (
    PAPER_NUM_PATHS,
    PAPER_VICTIM_LINK,
    chosen_victim_case_study,
    max_damage_case_study,
    naive_baseline_case_study,
    obfuscation_case_study,
    paper_fig1_scenario,
)


class TestFig1Scenario:
    def test_dimensions(self, fig1_scenario):
        assert fig1_scenario.path_set.num_paths == PAPER_NUM_PATHS
        assert fig1_scenario.topology.num_links == 10
        assert fig1_scenario.monitors == ("M1", "M2", "M3")

    def test_routine_delays_in_paper_range(self, fig1_scenario):
        assert np.all(fig1_scenario.true_metrics >= 1.0)
        assert np.all(fig1_scenario.true_metrics <= 20.0)

    def test_paper_thresholds_and_cap(self, fig1_scenario):
        assert fig1_scenario.thresholds.lower == 100.0
        assert fig1_scenario.thresholds.upper == 800.0
        assert fig1_scenario.cap == 2000.0

    def test_deterministic(self):
        a = paper_fig1_scenario(seed=2017)
        b = paper_fig1_scenario(seed=2017)
        assert np.array_equal(a.true_metrics, b.true_metrics)
        assert [p.nodes for p in a.path_set] == [p.nodes for p in b.path_set]

    def test_all_paths_between_monitors(self, fig1_scenario):
        monitors = set(fig1_scenario.monitors)
        for path in fig1_scenario.path_set:
            assert path.source in monitors
            assert path.target in monitors


class TestFig4ChosenVictim:
    def test_succeeds_without_perfect_cut(self):
        record = chosen_victim_case_study()
        assert record["feasible"]
        assert not record["perfect_cut"]
        assert 0.0 < record["presence_ratio"] < 1.0

    def test_victim_is_only_abnormal_link(self):
        record = chosen_victim_case_study()
        assert record["abnormal_links"] == [PAPER_VICTIM_LINK]
        assert record["estimates"][PAPER_VICTIM_LINK] > 800.0

    def test_attacker_links_normal(self):
        record = chosen_victim_case_study()
        for j in range(1, 8):  # paper links 2-8
            assert record["states"][j] == "normal"

    def test_paper_shape_mean_path_delay(self):
        """Paper: 820.87 ms average; shape target = same order (hundreds)."""
        record = chosen_victim_case_study()
        assert 400.0 <= record["mean_path_delay"] <= 1600.0

    def test_damage_positive(self):
        record = chosen_victim_case_study()
        assert record["damage"] > 0


class TestFig5MaxDamage:
    def test_dominates_chosen_victim(self):
        fig4 = chosen_victim_case_study(mode="paper")
        fig5 = max_damage_case_study()
        assert fig5["feasible"]
        assert fig5["damage"] >= fig4["damage"] - 1e-6

    def test_mean_delay_exceeds_fig4(self):
        """Paper: 1239.4 ms (Fig. 5) > 820.87 ms (Fig. 4)."""
        fig4 = chosen_victim_case_study()
        fig5 = max_damage_case_study()
        assert fig5["mean_path_delay"] > fig4["mean_path_delay"]

    def test_victims_among_free_links(self):
        record = max_damage_case_study()
        assert set(record["victim_links"]) <= {0, 8, 9}

    def test_damage_by_victim_covers_free_links(self):
        record = max_damage_case_study()
        assert set(record["damage_by_victim"]) == {0, 8, 9}

    def test_abnormal_set_contains_victims(self):
        record = max_damage_case_study()
        assert set(record["victim_links"]) <= set(record["abnormal_links"])


class TestFig6Obfuscation:
    def test_every_link_uncertain(self):
        record = obfuscation_case_study()
        assert record["feasible"]
        assert all(state == "uncertain" for state in record["states"])

    def test_estimates_inside_band(self):
        record = obfuscation_case_study()
        for value in record["estimates"]:
            assert 100.0 <= value <= 800.0

    def test_no_outliers_story(self):
        """No link stands out: max/min estimate ratio stays moderate."""
        record = obfuscation_case_study()
        estimates = record["estimates"]
        assert max(estimates) / max(min(estimates), 1.0) < 8.0

    def test_min_victims_respected(self):
        record = obfuscation_case_study(min_victims=3)
        assert len(record["victim_links"]) >= 3


class TestNaiveBaseline:
    def test_worst_link_is_attacker_controlled(self):
        record = naive_baseline_case_study()
        assert record["worst_link_is_controlled"]

    def test_exposure_at_full_budget(self):
        record = naive_baseline_case_study()
        assert record["attacker_exposed"]
        assert set(record["exposed_controlled_links"]) <= set(record["controlled_links"])

    def test_contrast_with_scapegoating(self):
        """Same budget, opposite attribution: scapegoating blames link 10,
        the naive attack's worst link is the attackers' own."""
        naive = naive_baseline_case_study()
        scapegoat = chosen_victim_case_study()
        assert naive["worst_link_is_controlled"]
        assert scapegoat["abnormal_links"] == [PAPER_VICTIM_LINK]
