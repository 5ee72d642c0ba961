"""Timestepped streaming campaigns with per-epoch path churn."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.scenarios.streaming import (
    ChurnEvent,
    StreamingCampaign,
    random_churn_schedule,
)
from repro.tomography.linear_system import LinearSystem


class TestChurnEvent:
    def test_churns_flag(self):
        assert not ChurnEvent().churns
        assert ChurnEvent(fail=(1,)).churns
        assert ChurnEvent(recover=(2,)).churns


class TestRandomChurnSchedule:
    def test_deterministic_under_seed(self):
        a = random_churn_schedule(10, 8, churn_rate=0.3, rng=7)
        b = random_churn_schedule(10, 8, churn_rate=0.3, rng=7)
        assert a == b

    def test_min_live_respected(self):
        schedule = random_churn_schedule(
            6, 20, churn_rate=1.0, recover_rate=0.0, min_live=3, rng=0
        )
        live = set(range(6))
        for event in schedule:
            live.difference_update(event.fail)
            live.update(event.recover)
            assert len(live) >= 3

    def test_failed_paths_recover(self):
        schedule = random_churn_schedule(
            8, 30, churn_rate=0.5, recover_rate=1.0, rng=1
        )
        recovered = {i for event in schedule for i in event.recover}
        assert recovered  # with recover_rate=1 every failure comes back

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_paths": 0, "num_epochs": 3},
            {"num_paths": 4, "num_epochs": 0},
            {"num_paths": 4, "num_epochs": 3, "churn_rate": 1.5},
            {"num_paths": 4, "num_epochs": 3, "min_live": 0},
            {"num_paths": 4, "num_epochs": 3, "min_live": 5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            random_churn_schedule(**kwargs)


class TestHonestStream:
    def test_no_alarms_without_attackers(self, fig1_scenario):
        campaign = StreamingCampaign(fig1_scenario)
        schedule = random_churn_schedule(
            fig1_scenario.path_set.num_paths, 8, churn_rate=0.2, rng=3
        )
        result = campaign.run(schedule, rng=3)
        assert result.num_epochs == 8
        assert result.attacked_epochs == ()
        assert result.detected_epochs == ()
        assert result.false_alarm_epochs == ()
        assert result.detection_latency() is None

    def test_incremental_fraction_measured(self, fig1_scenario):
        campaign = StreamingCampaign(fig1_scenario)
        campaign.detector.system.rank  # warm: churn should patch, not rebuild
        schedule = random_churn_schedule(
            fig1_scenario.path_set.num_paths, 10, churn_rate=0.2, rng=5
        )
        result = campaign.run(schedule, rng=5)
        fraction = result.incremental_fraction()
        assert fraction is not None
        assert fraction > 0.0

    def test_no_churn_schedule_yields_none_fraction(self, fig1_scenario):
        campaign = StreamingCampaign(fig1_scenario)
        result = campaign.run([ChurnEvent()] * 3, rng=0)
        assert result.incremental_fraction() is None
        assert all(e.incremental is None for e in result.epochs)


class TestAttackedStream:
    def test_naive_attack_detected(self, fig1_scenario):
        campaign = StreamingCampaign(fig1_scenario, attacker_nodes=["B", "C"])
        result = campaign.run([ChurnEvent()] * 4, rng=0)
        assert result.attacked_epochs == (0, 1, 2, 3)
        # The naive per-path delay attack is inconsistent by construction.
        assert 0 in result.detected_epochs
        assert result.detection_latency() == 0

    def test_replan_only_when_support_changes(self, fig1_scenario):
        campaign = StreamingCampaign(fig1_scenario, attacker_nodes=["B", "C"])
        result = campaign.run([ChurnEvent()] * 4, rng=0)
        # Static path set: exactly one plan, carried across every epoch.
        assert result.replan_count == 1
        assert result.epochs[0].replanned
        assert not any(e.replanned for e in result.epochs[1:])

    def test_churn_forces_replan(self, fig1_scenario):
        campaign = StreamingCampaign(fig1_scenario, attacker_nodes=["B", "C"])
        support = sorted(campaign._base_support)
        assert support, "attackers B,C must touch at least one path"
        target = support[0]
        schedule = [
            ChurnEvent(),
            ChurnEvent(fail=(target,)),
            ChurnEvent(recover=(target,)),
        ]
        result = campaign.run(schedule, rng=0)
        assert result.replan_count >= 2  # initial plan + post-churn replan

    def test_active_epochs_subset(self, fig1_scenario):
        campaign = StreamingCampaign(fig1_scenario, attacker_nodes=["B", "C"])
        result = campaign.run([ChurnEvent()] * 5, active_epochs=[1, 3], rng=0)
        assert result.attacked_epochs == (1, 3)

    def test_active_epochs_out_of_range_rejected(self, fig1_scenario):
        campaign = StreamingCampaign(fig1_scenario, attacker_nodes=["B"])
        with pytest.raises(ValidationError, match="active epoch"):
            campaign.run([ChurnEvent()] * 2, active_epochs=[5], rng=0)


class TestChurnBookkeeping:
    def test_live_paths_track_base_indices(self, fig1_scenario):
        campaign = StreamingCampaign(fig1_scenario)
        num = fig1_scenario.path_set.num_paths
        schedule = [ChurnEvent(fail=(0,)), ChurnEvent(recover=(0,))]
        result = campaign.run(schedule, rng=0)
        assert result.epochs[0].live_paths == tuple(range(1, num))
        # The recovered path re-joins at the end of the row order.
        assert result.epochs[1].live_paths == tuple(range(1, num)) + (0,)

    def test_failing_dead_path_rejected(self, fig1_scenario):
        campaign = StreamingCampaign(fig1_scenario)
        schedule = [ChurnEvent(fail=(0,)), ChurnEvent(fail=(0,))]
        with pytest.raises(ValidationError, match="not live"):
            campaign.run(schedule, rng=0)

    def test_recovering_live_path_rejected(self, fig1_scenario):
        campaign = StreamingCampaign(fig1_scenario)
        with pytest.raises(ValidationError, match="is live"):
            campaign.run([ChurnEvent(recover=(0,))], rng=0)

    def test_empty_schedule_rejected(self, fig1_scenario):
        campaign = StreamingCampaign(fig1_scenario)
        with pytest.raises(ValidationError, match="at least one epoch"):
            campaign.run([], rng=0)

    def test_second_run_continues_from_the_evolved_system(self, fig1_scenario):
        """A second ``run`` starts from the paths the first one left live."""
        campaign = StreamingCampaign(fig1_scenario, attacker_nodes=["B", "C"])
        first = campaign.run([ChurnEvent(fail=(0,)), ChurnEvent(fail=(1,))], rng=0)
        second = campaign.run(
            [
                ChurnEvent(fail=(3,)),
                ChurnEvent(recover=(0,)),
                ChurnEvent(fail=(0,), recover=(1,)),
            ],
            rng=1,
        )
        for epoch in first.epochs + second.epochs:
            assert epoch.detection.per_path_residual.shape == (len(epoch.live_paths),)
        last = second.epochs[-1]
        assert last.live_paths == (2, *range(4, fig1_scenario.path_set.num_paths), 1)
        matrix = fig1_scenario.path_set.routing_matrix()[list(last.live_paths)]
        cold = LinearSystem(matrix).estimate(last.observed)
        np.testing.assert_allclose(last.detection.estimate, cold, rtol=0, atol=1e-8)

    def test_noise_model_applied(self, fig1_scenario):
        spikes = lambda rng, size: np.full(size, 1000.0)  # noqa: E731
        campaign = StreamingCampaign(fig1_scenario, noise_model=spikes)
        result = campaign.run([ChurnEvent()], rng=0)
        # A 1000ms spike on every path is wildly inconsistent: false alarm.
        assert result.false_alarm_epochs == (0,)
