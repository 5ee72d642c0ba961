"""Tests for the diagnosis report."""

import numpy as np

from repro.metrics.states import LinkState, StateThresholds
from repro.tomography.diagnosis import diagnose


class TestDiagnose:
    def test_partition(self):
        estimate = np.array([5.0, 500.0, 900.0, 50.0])
        report = diagnose(estimate, StateThresholds())
        assert report.normal == (0, 3)
        assert report.uncertain == (1,)
        assert report.abnormal == (2,)
        assert report.state_of(2) is LinkState.ABNORMAL

    def test_values_at_the_bounds_are_uncertain(self):
        report = diagnose(np.array([100.0, 800.0, 99.0, 801.0]), StateThresholds())
        assert report.states == (
            LinkState.UNCERTAIN,
            LinkState.UNCERTAIN,
            LinkState.NORMAL,
            LinkState.ABNORMAL,
        )
        assert report.uncertain == (0, 1)
        assert report.normal == (2,)
        assert report.abnormal == (3,)
        indices = report.normal + report.uncertain + report.abnormal
        assert all(type(index) is int for index in indices)

    def test_two_state_thresholds(self):
        report = diagnose(
            np.array([101.0, 100.0, 99.0]), StateThresholds.two_state(100.0)
        )
        assert report.abnormal == (0,)
        assert report.uncertain == (1,)
        assert report.normal == (2,)

    def test_empty_estimate(self):
        report = diagnose(np.array([]), StateThresholds())
        assert report.states == ()
        assert report.normal == report.uncertain == report.abnormal == ()

    def test_states_cover_all_links(self):
        estimate = np.linspace(0, 1000, 12)
        report = diagnose(estimate, StateThresholds())
        assert len(report.states) == 12
        assert set(report.normal) | set(report.uncertain) | set(report.abnormal) == set(
            range(12)
        )

    def test_blames(self):
        report = diagnose(np.array([900.0, 5.0, 900.0]), StateThresholds())
        assert report.blames([0])
        assert report.blames([0, 2])
        assert not report.blames([0, 1])
        assert not report.blames([])

    def test_summary(self):
        report = diagnose(np.array([5.0, 900.0]), StateThresholds())
        summary = report.summary()
        assert summary["num_links"] == 2
        assert summary["abnormal"] == 1
        assert summary["normal"] == 1
        assert summary["max_estimate"] == 900.0

    def test_estimate_copied(self):
        values = np.array([5.0, 10.0])
        report = diagnose(values, StateThresholds())
        values[0] = 999.0
        assert report.estimate[0] == 5.0
