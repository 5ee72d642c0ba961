"""Tests for the Fig. 9 detection experiments (small scale)."""

import pytest

from repro.detection.consistency import ConsistencyDetector
from repro.exceptions import ValidationError
from repro.measurement.noise import GaussianNoise
from repro.obs import PerfRecorder, recording
from repro.scenarios.detection_experiments import (
    ablation_estimator_zoo,
    detection_ratio_experiment,
    false_alarm_experiment,
)
from repro.utils.rng import spawn_rngs


class TestDetectionRatios:
    @pytest.mark.parametrize("strategy", ["chosen-victim", "max-damage", "obfuscation"])
    def test_confined_attacker_perfect_cut_never_detected(
        self, fig1_scenario, strategy
    ):
        result = detection_ratio_experiment(
            fig1_scenario, strategy, "perfect", num_trials=12, seed=1
        )
        assert result["num_successful_attacks"] > 0
        assert result["detection_ratio"] == 0.0

    @pytest.mark.parametrize("strategy", ["chosen-victim", "max-damage", "obfuscation"])
    def test_confined_attacker_imperfect_cut_always_detected(
        self, fig1_scenario, strategy
    ):
        result = detection_ratio_experiment(
            fig1_scenario, strategy, "imperfect", num_trials=20, seed=1
        )
        if result["num_successful_attacks"]:
            assert result["detection_ratio"] == 1.0

    def test_plain_attacker_detected_even_under_perfect_cut(self, fig1_scenario):
        result = detection_ratio_experiment(
            fig1_scenario,
            "chosen-victim",
            "perfect",
            num_trials=12,
            attacker_model="plain",
            seed=1,
        )
        assert result["num_successful_attacks"] > 0
        assert result["detection_ratio"] == 1.0

    def test_unconfined_attacker_can_evade_imperfect_cuts(self, fig1_scenario):
        """The stronger-than-paper attacker: some imperfect-cut attacks slip
        through (the extension finding recorded in EXPERIMENTS.md)."""
        result = detection_ratio_experiment(
            fig1_scenario,
            "max-damage",
            "imperfect",
            num_trials=20,
            attacker_model="unconfined",
            seed=1,
        )
        if result["num_successful_attacks"]:
            assert result["detection_ratio"] < 1.0

    def test_trial_records(self, fig1_scenario):
        result = detection_ratio_experiment(
            fig1_scenario, "chosen-victim", "perfect", num_trials=8, seed=2
        )
        for trial in result["trials"]:
            if trial["attack_success"]:
                assert trial["detected"] in (True, False)
                assert trial["residual_l1"] >= 0.0
            else:
                assert trial["detected"] is None

    def test_validation(self, fig1_scenario):
        with pytest.raises(ValidationError):
            detection_ratio_experiment(fig1_scenario, "bogus", "perfect")
        with pytest.raises(ValidationError):
            detection_ratio_experiment(fig1_scenario, "chosen-victim", "bogus")
        with pytest.raises(ValidationError):
            detection_ratio_experiment(
                fig1_scenario, "chosen-victim", "perfect", attacker_model="bogus"
            )
        with recording(PerfRecorder()) as recorder:  # rejected before any trial
            with pytest.raises(ValidationError, match="attacker_sizes"):
                detection_ratio_experiment(
                    fig1_scenario, "chosen-victim", "perfect", attacker_sizes=()
                )
        assert "mc_trial" not in recorder.counters


class TestFalseAlarms:
    def test_noiseless_has_zero_false_alarms(self, fig1_scenario):
        result = false_alarm_experiment(fig1_scenario, num_trials=15, seed=0)
        assert result["false_alarm_rate"] == 0.0
        assert result["max_residual"] < 1e-6

    def test_large_noise_with_tight_alpha_alarms(self, fig1_scenario):
        result = false_alarm_experiment(
            fig1_scenario,
            num_trials=15,
            alpha=0.001,
            noise_model=GaussianNoise(20.0),
            seed=0,
        )
        assert result["false_alarm_rate"] > 0.5

    def test_paper_alpha_absorbs_small_noise(self, fig1_scenario):
        result = false_alarm_experiment(
            fig1_scenario,
            num_trials=15,
            alpha=200.0,
            noise_model=GaussianNoise(1.0),
            seed=0,
        )
        assert result["false_alarm_rate"] == 0.0

    def test_blocks_match_per_trial_checks(self, fig1_scenario):
        """300 noisy trials are checked as two blocks (256 + 44 columns);
        every verdict equals a per-trial check of the same spawned draw."""
        noise, alpha = GaussianNoise(5.0), 67.0  # alpha near the median residual
        result = false_alarm_experiment(
            fig1_scenario, num_trials=300, alpha=alpha, noise_model=noise, seed=3
        )
        detector = ConsistencyDetector(fig1_scenario.system, alpha)
        engine = fig1_scenario.engine(noise)
        singles = [
            detector.check(engine.measure(fig1_scenario.true_metrics, rng=rng))
            for rng in spawn_rngs(3, 300)
        ]
        assert len(result["trials"]) == 300
        for trial, single in zip(result["trials"], singles):
            assert trial["detected"] == single.detected
            assert trial["residual_l1"] == pytest.approx(single.residual_l1, abs=1e-9)
        assert 0.0 < result["false_alarm_rate"] < 1.0


class TestEstimatorZooAblation:
    def test_rows_cover_requested_families_with_comparable_trials(
        self, fig1_scenario
    ):
        result = ablation_estimator_zoo(
            fig1_scenario, num_trials=8, seed=3, attacker_sizes=(2,)
        )
        assert [row["estimator"] for row in result["estimators"]] == [
            "ls",
            "bayes-map",
            "l1",
        ]
        trials = {row["num_valid_trials"] for row in result["estimators"]}
        assert len(trials) == 1  # identical re-seeding: same attack sequence
        for row in result["estimators"]:
            assert row["attack_success_rate"] > 0.0
            assert row["alpha"] >= result["base_alpha"]
            assert 0.0 <= row["scapegoat_rate"] <= 1.0
            assert 0.0 <= row["detection_ratio"] <= 1.0

    def test_perfect_cut_stealth_holds_for_every_family(self, fig1_scenario):
        """Theorem 3 is estimator-independent on consistent forgeries:
        a perfect-cut stealthy attack leaves residuals under every
        calibrated alpha, whatever the inversion family."""
        result = ablation_estimator_zoo(
            fig1_scenario, cut="perfect", num_trials=8, seed=3
        )
        for row in result["estimators"]:
            assert row["detection_ratio"] == 0.0

    def test_roc_rows_are_well_formed(self, fig1_scenario):
        result = ablation_estimator_zoo(
            fig1_scenario, estimators=("ls",), num_trials=8, seed=3, roc_points=5
        )
        roc = result["estimators"][0]["roc"]
        assert 0 < len(roc) <= 5
        thresholds = [row["threshold"] for row in roc]
        assert thresholds == sorted(thresholds)
        for row in roc:
            assert 0.0 <= row["true_positive_rate"] <= 1.0
            assert 0.0 <= row["false_positive_rate"] <= 1.0
        # The bracketing thresholds pin the ROC endpoints.
        assert roc[0]["true_positive_rate"] == 1.0
        assert roc[0]["false_positive_rate"] == 1.0
        assert roc[-1]["true_positive_rate"] == 0.0
        assert roc[-1]["false_positive_rate"] == 0.0

    def test_estimator_params_flow_into_the_named_family(self, fig1_scenario):
        result = ablation_estimator_zoo(
            fig1_scenario,
            estimators=("bayes-map",),
            estimator_params={"bayes-map": {"prior_var": 123.0}},
            num_trials=4,
            seed=3,
        )
        assert result["estimators"][0]["params"]["prior_var"] == 123.0

    def test_validation(self, fig1_scenario):
        with pytest.raises(ValidationError):
            ablation_estimator_zoo(fig1_scenario, strategy="bogus")
        with pytest.raises(ValidationError):
            ablation_estimator_zoo(fig1_scenario, cut="bogus")
        with pytest.raises(ValidationError):
            ablation_estimator_zoo(fig1_scenario, estimators=())
        with pytest.raises(ValidationError):
            ablation_estimator_zoo(
                fig1_scenario,
                estimators=("ls",),
                estimator_params={"l1": {}},
            )
        with recording(PerfRecorder()) as recorder:  # rejected before any trial
            with pytest.raises(ValidationError, match="attacker_sizes"):
                ablation_estimator_zoo(fig1_scenario, attacker_sizes=())
        assert "mc_trial" not in recorder.counters
