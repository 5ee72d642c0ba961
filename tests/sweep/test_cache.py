"""The in-memory :class:`FactorizationCache` behind grid sweeps.

Two families:

- **Scenario kernel** — the cache serves each scenario's own
  :attr:`~repro.scenarios.scenario.Scenario.system`: contexts and
  auditors run on it, repeat lookups return the memoised auditor, and
  repeat grid points factorize nothing.
- **Scenario staleness** — path churn gives the scenario a new kernel,
  and so new memo keys: a churned scenario is never served anything
  built over its pre-churn matrix.

The cache keeps factorizations in memory only; its ``store`` keyword
accepts nothing but ``None``.
"""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.obs import core as obs
from repro.sweep import FactorizationCache, SweepSpec, run_grid_point
from repro.tomography.linear_system import LinearSystem


def _one_point_spec(seed: int = 9) -> SweepSpec:
    return SweepSpec.from_dict(
        {
            "format": "repro-sweep",
            "version": 1,
            "name": "cache-unit",
            "seed": seed,
            "strategies": ["chosen-victim"],
            "topologies": [{"kind": "fig1"}],
            "attacker_counts": [2],
        }
    )


def _factorizations(recorder) -> int:
    return recorder.counters["svd"] + recorder.counters["gram_cholesky"]


class TestStoreKeyword:
    def test_any_store_but_none_rejected(self):
        with pytest.raises(ValidationError, match="store must be None"):
            FactorizationCache(store=object())


class TestScenarioKernel:
    def test_scenario_system_for_is_the_scenarios_system(self, fig1_scenario):
        cache = FactorizationCache(store=None)
        for _ in range(3):
            assert cache.scenario_system_for(fig1_scenario) is fig1_scenario.system

    def test_context_runs_on_the_scenario_system(self, fig1_scenario):
        cache = FactorizationCache(store=None)
        context = cache.context_for(fig1_scenario, ("B", "C"))
        assert context.system is fig1_scenario.system
        ridge = cache.context_for(fig1_scenario, ("B",), estimator="ridge")
        assert ridge.system is fig1_scenario.system
        assert ridge.estimator.system is fig1_scenario.system

    def test_auditor_runs_on_the_scenario_system(self, fig1_scenario):
        cache = FactorizationCache(store=None)
        auditor = cache.auditor_for(fig1_scenario)
        assert auditor.detector.system is fig1_scenario.system
        for _ in range(3):
            assert cache.auditor_for(fig1_scenario) is auditor
        assert cache.stats["auditor_miss"] == 1

    def test_repeat_points_factorize_once(self):
        """White-box: the first point factorizes the scenario's R, no later one does."""
        spec = _one_point_spec()
        (point,) = spec.expand()
        cache = FactorizationCache(store=None)
        scenarios = {}
        with obs.recording() as first:
            record = run_grid_point(spec, point, cache=cache, scenarios=scenarios)
        assert _factorizations(first) == 1
        with obs.recording() as again:
            for _ in range(3):
                assert run_grid_point(spec, point, cache=cache, scenarios=scenarios) == record
        assert _factorizations(again) == 0


class TestScenarioStaleness:
    """Path churn under a memoised scenario must never serve stale factors."""

    def test_churned_path_set_rekeys_the_memo(self):
        from repro.scenarios.simple_network import paper_fig1_scenario

        scenario = paper_fig1_scenario()  # fresh: this test mutates it
        cache = FactorizationCache(store=None)
        stale = scenario.system
        stale_auditor = cache.auditor_for(scenario)
        scenario.path_set.remove(0)
        context = cache.context_for(scenario, ("B", "C"))
        auditor = cache.auditor_for(scenario)
        assert auditor is not stale_auditor
        for system in (context.system, auditor.detector.system):
            assert system is scenario.system
            assert system is not stale
            assert system.num_paths == stale.num_paths - 1

    def test_rebuilt_memo_is_stable_again(self):
        from repro.scenarios.simple_network import paper_fig1_scenario

        scenario = paper_fig1_scenario()
        cache = FactorizationCache(store=None)
        cache.auditor_for(scenario)
        scenario.path_set.remove(1)
        fresh = cache.auditor_for(scenario)
        for _ in range(3):
            assert cache.scenario_system_for(scenario) is scenario.system
            assert cache.auditor_for(scenario) is fresh
        assert cache.stats["auditor_miss"] == 2

    def test_estimates_follow_the_churned_matrix(self):
        from repro.scenarios.simple_network import paper_fig1_scenario

        scenario = paper_fig1_scenario()
        cache = FactorizationCache(store=None)
        cache.scenario_system_for(scenario)
        scenario.path_set.remove(0)
        reference = LinearSystem(scenario.path_set.routing_matrix())
        observed = np.arange(reference.num_paths, dtype=float)
        systems = (
            cache.scenario_system_for(scenario),
            cache.context_for(scenario, ("B", "C")).system,
            cache.auditor_for(scenario).detector.system,
        )
        for system in systems:
            assert np.abs(
                system.estimate(observed) - reference.estimate(observed)
            ).max() < 1e-8
