"""The in-memory :class:`FactorizationCache` behind grid sweeps.

Two families:

- **Digest memo** — each distinct routing matrix is hashed exactly once
  per cache (the ``digest_compute`` white-box counter), and repeat
  lookups for one scenario object rebuild nothing.
- **Scenario staleness** — path churn under a memoised scenario re-keys
  the memo, so a churned scenario is never served its pre-churn
  factorization.

The cache keeps factorizations in memory only; its ``store`` keyword
accepts nothing but ``None``.
"""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.obs import core as obs
from repro.obs.summary import read_events
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


class TestStoreKeyword:
    def test_any_store_but_none_rejected(self):
        with pytest.raises(ValidationError, match="store must be None"):
            FactorizationCache(store=object())


class TestDigestMemo:
    def test_each_matrix_hashed_exactly_once(self):
        """White-box: repeat lookups pay neither matrix build nor hashing."""
        spec = _one_point_spec()
        (point,) = spec.expand()
        cache = FactorizationCache(store=None)
        scenarios = {}
        for _ in range(4):
            run_grid_point(spec, point, cache=cache, scenarios=scenarios)
        assert cache.stats["digest_compute"] == 1

    def test_scenario_memo_skips_matrix_rebuild(self, fig1_scenario):
        cache = FactorizationCache(store=None)
        system = cache.scenario_system_for(fig1_scenario)
        for _ in range(3):
            assert cache.scenario_system_for(fig1_scenario) is system
            assert cache.auditor_for(fig1_scenario) is cache.auditor_for(fig1_scenario)
        assert cache.stats["digest_compute"] == 1


class TestScenarioStaleness:
    """Path churn under a memoised scenario must never serve stale factors."""

    def test_churned_path_set_rekeys_the_memo(self, tmp_path):
        from repro.scenarios.simple_network import paper_fig1_scenario

        scenario = paper_fig1_scenario()  # fresh: this test mutates it
        cache = FactorizationCache(store=None)
        log_path = tmp_path / "run.jsonl"
        with obs.enabled(log_path):
            stale = cache.scenario_system_for(scenario)
            assert cache.scenario_system_for(scenario) is stale
            scenario.path_set.remove(0)
            fresh = cache.scenario_system_for(scenario)
        assert fresh is not stale
        assert fresh.num_paths == stale.num_paths - 1
        assert fresh.digest != stale.digest
        assert cache.stats["scenario_stale_evict"] == 1
        events = [
            r
            for r in read_events(log_path)
            if r.get("name") == "sweep_cache_stale_evict"
        ]
        assert len(events) == 1
        assert events[0]["stale_digest"] == stale.digest
        assert events[0]["version"] > events[0]["stale_version"]

    def test_rebuilt_memo_is_stable_again(self):
        from repro.scenarios.simple_network import paper_fig1_scenario

        scenario = paper_fig1_scenario()
        cache = FactorizationCache(store=None)
        cache.scenario_system_for(scenario)
        scenario.path_set.remove(1)
        fresh = cache.scenario_system_for(scenario)
        for _ in range(3):
            assert cache.scenario_system_for(scenario) is fresh
        assert cache.stats["scenario_stale_evict"] == 1

    def test_estimates_follow_the_churned_matrix(self):
        from repro.scenarios.simple_network import paper_fig1_scenario

        scenario = paper_fig1_scenario()
        cache = FactorizationCache(store=None)
        cache.scenario_system_for(scenario)
        scenario.path_set.remove(0)
        system = cache.scenario_system_for(scenario)
        reference = LinearSystem(scenario.path_set.routing_matrix())
        observed = np.arange(system.num_paths, dtype=float)
        assert np.abs(
            system.estimate(observed) - reference.estimate(observed)
        ).max() < 1e-8
