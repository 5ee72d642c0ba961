"""Multi-epoch measurement campaigns, with and without path churn."""

import numpy as np
import pytest

from repro.attacks.chosen_victim import ChosenVictimAttack
from repro.attacks.naive import NaiveDelayAttack
from repro.exceptions import ValidationError
from repro.measurement.noise import GaussianNoise
from repro.scenarios.streaming import (
    ChurnEvent,
    StreamingCampaign,
    random_churn_schedule,
)
from repro.tomography.diagnosis import diagnose
from repro.tomography.linear_system import LinearSystem


@pytest.fixture(scope="module")
def imperfect_attack(fig1_scenario):
    context = fig1_scenario.attack_context(["B", "C"])
    outcome = ChosenVictimAttack(context, [9], mode="exclusive").run()
    assert outcome.feasible
    return outcome


@pytest.fixture(scope="module")
def stealthy_attack(fig1_scenario):
    context = fig1_scenario.attack_context(["B", "C"])
    outcome = ChosenVictimAttack(context, [0], stealthy=True).run()
    assert outcome.feasible
    return outcome


def _replay(scenario, outcome, **kwargs):
    """A campaign whose attacker replays one fixed manipulation."""
    return StreamingCampaign(
        scenario,
        attacker_nodes=["B", "C"],
        attack_factory=lambda _context: outcome,
        **kwargs,
    )


def _static(num_epochs):
    """A schedule over a fixed path set: no churn in any epoch."""
    return [ChurnEvent()] * num_epochs


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
        # Only the sparse backend patches its factors under churn.
        campaign = StreamingCampaign(fig1_scenario, backend="sparse")
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

    def test_sparse_replans_leave_the_live_system_sparse(self, fig1_scenario):
        """A replan checks the live sparse system against R without densifying it."""
        planned_on = []

        def naive(context):
            planned_on.append(context.system)
            return NaiveDelayAttack(context).run()

        campaign = StreamingCampaign(
            fig1_scenario, attacker_nodes=["B", "C"], attack_factory=naive, backend="sparse"
        )
        target = sorted(campaign._base_support)[0]
        schedule = [ChurnEvent(), ChurnEvent(fail=(target,)), ChurnEvent(recover=(target,))]
        result = campaign.run(schedule, rng=0)
        assert result.replan_count == len(planned_on) >= 2
        assert planned_on[-1] is campaign.detector.system
        for system in planned_on:
            assert system.backend_name == "sparse"
            assert "matrix" not in vars(system)

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


class TestHonestCampaign:
    def test_no_alarms_no_blame(self, fig1_scenario):
        result = StreamingCampaign(fig1_scenario).run(_static(10), rng=0)
        assert result.num_epochs == 10
        assert result.attacked_epochs == ()
        assert result.detected_epochs == ()
        assert result.blame_counts == {}
        assert result.detection_latency() is None
        assert result.most_blamed_link() is None

    def test_noise_within_alpha_stays_quiet(self, fig1_scenario):
        campaign = StreamingCampaign(fig1_scenario, noise_model=GaussianNoise(1.0))
        result = campaign.run(_static(10), rng=0)
        assert result.false_alarm_epochs == ()


class TestPersistentAttack:
    def test_caught_immediately_every_epoch(self, fig1_scenario, imperfect_attack):
        result = _replay(fig1_scenario, imperfect_attack).run(_static(6), rng=0)
        assert result.attacked_epochs == tuple(range(6))
        assert result.detected_epochs == tuple(range(6))
        assert result.detection_latency() == 0

    def test_blame_accumulates_on_scapegoat(self, fig1_scenario, imperfect_attack):
        result = _replay(fig1_scenario, imperfect_attack).run(_static(6), rng=0)
        assert result.most_blamed_link() == 9
        assert result.blame_counts[9] == 6


class TestIntermittentAttack:
    def test_explicit_active_epochs(self, fig1_scenario, imperfect_attack):
        result = _replay(fig1_scenario, imperfect_attack).run(
            _static(8), active_epochs=[2, 5], rng=0
        )
        assert result.attacked_epochs == (2, 5)
        assert result.detected_epochs == (2, 5)
        assert result.false_alarm_epochs == ()

    def test_probability_activity(self, fig1_scenario, imperfect_attack):
        result = _replay(fig1_scenario, imperfect_attack).run(
            _static(40), active_epochs=0.5, rng=1
        )
        active = len(result.attacked_epochs)
        assert 8 <= active <= 32
        assert set(result.detected_epochs) == set(result.attacked_epochs)

    def test_out_of_range_epoch_rejected(self, fig1_scenario, imperfect_attack):
        with pytest.raises(ValidationError):
            _replay(fig1_scenario, imperfect_attack).run(_static(4), active_epochs=[9])

    def test_bad_probability_rejected(self, fig1_scenario, imperfect_attack):
        with pytest.raises(ValidationError):
            _replay(fig1_scenario, imperfect_attack).run(_static(4), active_epochs=1.5)


class TestStealthyAttackOverTime:
    def test_never_detected_blame_persists(self, fig1_scenario, stealthy_attack):
        """A stealthy perfect-cut attacker survives arbitrarily many epochs:
        zero detections, and the scapegoat accumulates all the blame."""
        result = _replay(fig1_scenario, stealthy_attack).run(_static(12), rng=0)
        assert result.detected_epochs == ()
        assert result.detection_latency() is None
        assert result.most_blamed_link() == 0
        assert result.blame_counts[0] == 12


class TestValidation:
    def test_zero_epochs_rejected(self, fig1_scenario):
        with pytest.raises(ValidationError):
            StreamingCampaign(fig1_scenario).run([])

    def test_deterministic(self, fig1_scenario, imperfect_attack):
        campaign = _replay(
            fig1_scenario, imperfect_attack, noise_model=GaussianNoise(1.0)
        )
        a = campaign.run(_static(5), rng=7)
        b = campaign.run(_static(5), rng=7)
        assert np.allclose(a.epochs[3].observed, b.epochs[3].observed)


class TestBlameTally:
    def test_blame_counts_match_the_diagnosis_oracle(self, fig1_scenario):
        """Under churn and an active attacker, each link's tally is the
        number of epochs whose diagnosis reports it abnormal."""
        campaign = StreamingCampaign(fig1_scenario, attacker_nodes=["B", "C"])
        schedule = random_churn_schedule(
            fig1_scenario.path_set.num_paths, 12, churn_rate=0.2, rng=4
        )
        result = campaign.run(schedule, active_epochs=0.7, rng=4)
        assert any(e.incremental is not None for e in result.epochs)
        assert result.attacked_epochs
        flagged = [
            diagnose(e.detection.estimate, fig1_scenario.thresholds).abnormal
            for e in result.epochs
        ]
        assert any(flagged)
        for j in range(fig1_scenario.true_metrics.size):
            expected = sum(j in abnormal for abnormal in flagged)
            assert result.blame_counts.get(j, 0) == expected, j
        assert 0 not in result.blame_counts.values()
