"""Property-based invariants of the sweep engine and the attacks it runs.

Three families, per the paper's constraints:

- **Constraint 1** (eq. 1): any feasible manipulation is non-negative and
  supported only on paths the attackers can touch.
- **Band invariants**: thresholds are ordered (``b_l < b_u``), victims of
  a feasible chosen-victim attack are diagnosed abnormal (estimate above
  ``b_u``), and the attackers' own links stay out of the abnormal set.
- **Cache transparency**: a grid point run against a warm
  :class:`FactorizationCache` is bit-identical to a cold run — caching is
  a pure optimisation, never an observable.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks.chosen_victim import ChosenVictimAttack
from repro.attacks.max_damage import MaxDamageAttack
from repro.attacks.obfuscation import ObfuscationAttack
from repro.sweep import FactorizationCache, SweepSpec, run_grid_point

# Fig. 1 node labels (monitors included — the paper does not protect
# monitors from compromise).
FIG1_NODES = ["M1", "M2", "M3", "A", "B", "C", "D"]

attacker_sets = st.sets(st.sampled_from(FIG1_NODES), min_size=1, max_size=3).map(sorted)

common = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _feasible_outcome(scenario, attackers, strategy):
    context = scenario.attack_context(attackers)
    if strategy == "chosen-victim":
        controlled = context.controlled_links
        candidates = [
            link.index
            for link in scenario.topology.links()
            if link.index not in controlled
            and scenario.path_set.paths_containing_link(link.index)
        ]
        if not candidates:
            return context, None
        outcome = ChosenVictimAttack(context, [candidates[0]]).run()
    elif strategy == "max-damage":
        outcome = MaxDamageAttack(context).run()
    else:
        outcome = ObfuscationAttack(context, min_victims=1).run()
    return context, outcome


class TestConstraint1:
    @common
    @given(attackers=attacker_sets, strategy=st.sampled_from(
        ["chosen-victim", "max-damage", "obfuscation"]))
    def test_manipulation_supported_only_on_attacker_paths(
        self, fig1_scenario, attackers, strategy
    ):
        context, outcome = _feasible_outcome(fig1_scenario, attackers, strategy)
        if outcome is None or not outcome.feasible:
            return
        m = outcome.manipulation
        assert m is not None and m.shape == (context.num_paths,)
        assert np.all(m >= -1e-9)
        off_support = np.ones(context.num_paths, dtype=bool)
        off_support[list(context.support)] = False
        assert np.allclose(m[off_support], 0.0, atol=1e-9)


class TestBandInvariants:
    @common
    @given(attackers=attacker_sets)
    def test_victims_abnormal_and_attackers_clean(self, fig1_scenario, attackers):
        thresholds = fig1_scenario.thresholds
        assert thresholds.lower < thresholds.upper
        context, outcome = _feasible_outcome(fig1_scenario, attackers, "chosen-victim")
        if outcome is None or not outcome.feasible:
            return
        estimate = outcome.predicted_estimate
        for victim in outcome.victim_links:
            # the estimate lands in the claimed (abnormal) band ...
            assert estimate[victim] > thresholds.upper
            # ... and the diagnosis agrees
            assert victim in outcome.diagnosis.abnormal
        # scapegoating, not confession: controlled links stay unclassified
        # as abnormal (they must look normal to shift the blame)
        assert not (set(outcome.diagnosis.abnormal) & context.controlled_links)


class TestCacheTransparency:
    @common
    @given(
        seed=st.integers(min_value=0, max_value=50),
        num_attackers=st.integers(min_value=1, max_value=3),
        strategy=st.sampled_from(
            ["chosen-victim", "max-damage", "obfuscation", "naive"]
        ),
    )
    def test_cached_run_bit_identical_to_cold(self, seed, num_attackers, strategy):
        spec = SweepSpec.from_dict(
            {
                "format": "repro-sweep",
                "version": 1,
                "name": "prop",
                "seed": seed,
                "strategies": [strategy],
                "topologies": [{"kind": "fig1"}],
                "attacker_counts": [num_attackers],
            }
        )
        (point,) = spec.expand()
        cold = run_grid_point(spec, point)
        warm_cache = FactorizationCache()
        scenarios = {}
        run_grid_point(spec, point, cache=warm_cache, scenarios=scenarios)
        warm = run_grid_point(spec, point, cache=warm_cache, scenarios=scenarios)
        assert warm_cache.stats["system_hit"] > 0
        # dict equality is exact: floats must match bit for bit
        assert warm == cold
