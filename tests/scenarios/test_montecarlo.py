"""Tests for Monte-Carlo plumbing."""

import math

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.scenarios.montecarlo import binned_rate, run_trials, success_rate


class TestRunTrials:
    def test_count_and_determinism(self):
        def trial(rng):
            return {"value": float(rng.random())}

        a = run_trials(10, trial, seed=1)
        b = run_trials(10, trial, seed=1)
        assert len(a) == 10
        assert a == b

    def test_none_results_rejected_like_invalid_draws(self):
        def trial(rng):
            value = float(rng.random())
            return {"value": value} if value > 0.5 else None

        results = run_trials(50, trial, seed=0)
        assert 0 < len(results) < 50
        assert all(r["value"] > 0.5 for r in results)

    def test_independent_of_execution_order(self):
        """Each trial stream is spawned, so results identify by index."""
        def trial(rng):
            return {"value": float(rng.random())}

        full = run_trials(5, trial, seed=9)
        again = run_trials(5, trial, seed=9)
        assert [r["value"] for r in full] == [r["value"] for r in again]

    @pytest.mark.parametrize("make_seed", [np.random.SeedSequence, np.random.default_rng])
    def test_live_seed_object_repeats_like_an_int(self, make_seed):
        """Spawning leaves the caller's seed object as it was."""
        def trial(rng):
            return float(rng.random())

        seed = make_seed(5)
        first = run_trials(3, trial, seed=seed)
        assert run_trials(3, trial, seed=seed) == first
        assert first == run_trials(3, trial, seed=5)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValidationError):
            run_trials(0, lambda rng: {}, seed=0)


class TestSuccessRate:
    def test_basic(self):
        results = [{"success": True}, {"success": False}, {"success": True}]
        assert success_rate(results) == pytest.approx(2 / 3)

    def test_custom_flag(self):
        results = [{"won": True}, {"won": False}]
        assert success_rate(results, "won") == 0.5

    def test_empty_is_nan(self):
        assert math.isnan(success_rate([]))


class TestBinnedRate:
    def test_default_deciles(self):
        results = [
            {"x": 0.05, "ok": False},
            {"x": 0.05, "ok": True},
            {"x": 0.95, "ok": True},
            {"x": 1.0, "ok": True},
        ]
        bins = binned_rate(results, "x", "ok")
        assert len(bins) == 10
        assert bins[0]["count"] == 2
        assert bins[0]["rate"] == 0.5
        # x == 1.0 lands in the top (closed) bin
        assert bins[-1]["count"] == 2
        assert bins[-1]["rate"] == 1.0

    def test_nan_covariates_skipped(self):
        results = [{"x": float("nan"), "ok": True}, {"x": 0.5, "ok": True}]
        bins = binned_rate(results, "x", "ok")
        assert sum(b["count"] for b in bins) == 1

    def test_empty_bin_rate_is_nan(self):
        bins = binned_rate([{"x": 0.05, "ok": True}], "x", "ok")
        assert math.isnan(bins[5]["rate"])

    def test_custom_edges(self):
        results = [{"x": 0.3, "ok": True}]
        bins = binned_rate(results, "x", "ok", bins=(0.0, 0.5, 1.0))
        assert len(bins) == 2
        assert bins[0]["count"] == 1
        assert bins[0]["mid"] == 0.25

    def test_bad_edges(self):
        with pytest.raises(ValidationError):
            binned_rate([], "x", "ok", bins=(0.5,))
        with pytest.raises(ValidationError):
            binned_rate([], "x", "ok", bins=(0.5, 0.2))
