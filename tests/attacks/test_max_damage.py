"""Tests for maximum-damage scapegoating."""

import math

import pytest

from repro.attacks.chosen_victim import ChosenVictimAttack
from repro.attacks.max_damage import DAMAGE_TIE_RTOL, MaxDamageAttack
from repro.exceptions import ValidationError
from repro.scenarios.scenario import Scenario
from repro.topology.generators.simple import ladder_topology


class TestSearch:
    def test_succeeds_on_fig1(self, fig1_context):
        outcome = MaxDamageAttack(fig1_context).run()
        assert outcome.feasible
        assert outcome.damage > 0
        assert len(outcome.victim_links) == 1

    def test_dominates_every_chosen_victim(self, fig1_context):
        """eq. (8) >= eq. (4) for every fixed victim — the defining property."""
        best = MaxDamageAttack(fig1_context).run()
        for victim in range(fig1_context.num_links):
            if victim in fig1_context.controlled_links:
                continue
            single = ChosenVictimAttack(fig1_context, [victim], mode="paper").run()
            if single.feasible:
                assert best.damage >= single.damage - 1e-6

    def test_victim_never_controlled(self, fig1_context):
        outcome = MaxDamageAttack(fig1_context).run()
        assert not set(outcome.victim_links) & set(fig1_context.controlled_links)

    def test_victims_flagged_abnormal(self, fig1_context):
        outcome = MaxDamageAttack(fig1_context).run()
        assert outcome.diagnosis.blames(outcome.victim_links)

    def test_search_trace_recorded(self, fig1_context):
        outcome = MaxDamageAttack(fig1_context).run()
        trace = outcome.extras["search_trace"]
        assert len(trace) == outcome.extras["candidates_tried"]
        best_damage = max(t["damage"] for t in trace if t["feasible"])
        assert outcome.damage == pytest.approx(best_damage)

    def test_candidate_restriction(self, fig1_context):
        outcome = MaxDamageAttack(fig1_context, candidate_links=[9]).run()
        assert outcome.victim_links == (9,)

    def test_stop_at_first_feasible(self, fig1_context):
        outcome = MaxDamageAttack(fig1_context, stop_at_first_feasible=True).run()
        assert outcome.feasible
        assert outcome.extras["candidates_tried"] >= 1

    def test_victim_set_size_two(self, fig1_context):
        outcome = MaxDamageAttack(fig1_context, victim_set_size=2).run()
        if outcome.feasible:
            assert len(outcome.victim_links) == 2

    def test_pair_damage_bounded_by_singletons(self, fig1_context):
        """Damage is antitone in victim-set inclusion."""
        pair = MaxDamageAttack(fig1_context, victim_set_size=2).run()
        singles = MaxDamageAttack(fig1_context).damage_by_victim()
        if pair.feasible:
            bound = min(singles[v] for v in pair.victim_links)
            assert pair.damage <= bound + 1e-6

    def test_max_combinations_limits_search(self, fig1_context):
        outcome = MaxDamageAttack(fig1_context, max_combinations=1).run()
        assert outcome.extras["candidates_tried"] <= 1

    def test_infeasible_when_no_candidates(self, fig1_scenario):
        """An attacker absent from every path cannot scapegoat anyone."""
        # M1's paths all cross it, so pick a context where support exists but
        # candidates are forced empty instead.
        context = fig1_scenario.attack_context(["B", "C"])
        outcome = MaxDamageAttack(context, candidate_links=[]).run()
        assert not outcome.feasible

    def test_validation(self, fig1_context):
        with pytest.raises(ValidationError):
            MaxDamageAttack(fig1_context, victim_set_size=0)
        with pytest.raises(ValidationError):
            MaxDamageAttack(fig1_context, max_combinations=0)
        with pytest.raises(ValidationError):
            MaxDamageAttack(fig1_context, candidate_links=[99])


class TestDamageByVictim:
    def test_map_covers_all_candidates(self, fig1_context):
        attack = MaxDamageAttack(fig1_context)
        damage_map = attack.damage_by_victim()
        assert set(damage_map) == set(attack.candidates)

    def test_map_consistent_with_run(self, fig1_context):
        attack = MaxDamageAttack(fig1_context)
        damage_map = attack.damage_by_victim()
        outcome = attack.run()
        finite = {k: v for k, v in damage_map.items() if not math.isnan(v)}
        assert outcome.damage == pytest.approx(max(finite.values()))


class TestTieBreak:
    """Candidates tied at the best damage go to the first one enumerated.

    On this 4-rung ladder an attacker at ``("top", 2)`` can frame links
    1, 2 and 3 for exactly the same optimal damage.  Without the
    tolerance, the solvers' last bits chose the winner: the warm path
    reported link 1 and the cold reference link 3.
    """

    @pytest.fixture(scope="class")
    def tied_context(self):
        scenario = Scenario.build(ladder_topology(4), rng=2, name="ladder4-tie")
        return scenario.attack_context([("top", 2)])

    def test_candidates_tie_at_the_best_damage(self, tied_context):
        damages = MaxDamageAttack(tied_context).damage_by_victim()
        best = max(d for d in damages.values() if not math.isnan(d))
        tied = [j for j, d in damages.items() if d >= best * (1 - DAMAGE_TIE_RTOL)]
        assert tied == [1, 2, 3]
        assert max(damages[j] for j in tied) - min(damages[j] for j in tied) <= 1e-12 * best

    def test_earliest_victim_wins_on_the_warm_path(self, tied_context):
        assert MaxDamageAttack(tied_context).run().victim_links == (1,)

    def test_earliest_victim_wins_on_the_reference(self, tied_context, cold_lp_reference):
        with cold_lp_reference():
            assert MaxDamageAttack(tied_context).run().victim_links == (1,)
