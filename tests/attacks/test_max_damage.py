"""Tests for maximum-damage scapegoating."""

import dataclasses
import json
import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.chosen_victim import ChosenVictimAttack
from repro.attacks.cuts import perfectly_cut_links
from repro.attacks.lp import IncrementalLpSolver
from repro.attacks.max_damage import BOUND_SLACK, DAMAGE_TIE_RTOL, MaxDamageAttack
from repro.exceptions import ValidationError
from repro.obs import PerfRecorder, recording
from repro.obs import core as obs
from repro.scenarios.scenario import Scenario
from repro.tomography.linear_system import LinearSystem
from repro.topology.generators.simple import grid_topology, ladder_topology


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


def _full_scan_winner(damages):
    """The tie rule over a full damage map, in enumeration order.

    ``damages`` maps each candidate to its damage (nan when infeasible);
    a later candidate displaces the incumbent only when it is better by
    more than ``DAMAGE_TIE_RTOL``.
    """
    best = None
    for candidate, damage in damages.items():
        if math.isnan(damage):
            continue
        if best is None or damage > damages[best] * (1 + DAMAGE_TIE_RTOL):
            best = candidate
    return best


def _perfect_cut_context(kind, size, seed, hub_index, spoke_index, extra, backend):
    """A small identifiable scenario with a perfectly cut victim.

    One node of degree >= 3 (the hub) is not a monitor; every other
    node is, and R has full column rank.  A path through a hub link
    (hub, v) never ends at the hub, so it also crosses another
    neighbour of the hub.  Making every such neighbour an attacker
    perfectly cuts the victim (hub, v), and Theorem 1 then makes it
    feasible in every constraint mode: a feasible candidate exists by
    construction.  ``extra`` optionally adds one more attacker that is
    not an endpoint of the victim.
    """
    topology = grid_topology(3, size) if kind == "grid" else ladder_topology(size)
    hubs = [n for n in topology.nodes() if topology.degree(n) >= 3]
    hub = hubs[hub_index % len(hubs)]
    monitors = [n for n in topology.nodes() if n != hub]
    scenario = Scenario.build(topology, monitors=monitors, rng=seed)
    spokes = topology.incident_links(hub)
    victim = spokes[spoke_index % len(spokes)]
    attackers = [link.other(hub) for link in spokes if link is not victim]
    if extra is not None:
        others = [n for n in topology.nodes() if n not in (victim.u, victim.v)]
        attackers.append(others[extra % len(others)])
    system = LinearSystem(scenario.path_set.routing_matrix(), backend=backend)
    assert system.rank == topology.num_links
    assert victim.index in perfectly_cut_links(scenario.path_set, attackers)
    return scenario.attack_context(attackers, system=system), victim.index


class TestEarlyStop:
    """The scan stops at the bound and still returns the full scan's winner."""

    @pytest.fixture(scope="class")
    def tied_context(self):
        scenario = Scenario.build(ladder_topology(4), rng=2, name="ladder4-tie")
        return scenario.attack_context([("top", 2)])

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["grid", "ladder"]),
        size=st.integers(3, 4),
        seed=st.integers(0, 10_000),
        hub_index=st.integers(0, 100),
        spoke_index=st.integers(0, 100),
        extra=st.none() | st.integers(0, 100),
        mode=st.sampled_from(["paper", "exclusive"]),
        confined=st.booleans(),
        stealthy=st.booleans(),
        backend=st.sampled_from(["dense", "sparse"]),
    )
    def test_returns_the_full_scan_winner(
        self, kind, size, seed, hub_index, spoke_index, extra, mode, confined, stealthy, backend
    ):
        context, victim = _perfect_cut_context(
            kind, size, seed, hub_index, spoke_index, extra, backend
        )

        def attack():
            return MaxDamageAttack(context, mode=mode, confined=confined, stealthy=stealthy)

        damages = attack().damage_by_victim()
        assert not math.isnan(damages[victim])
        winner = _full_scan_winner(damages)
        outcome = attack().run()
        assert outcome.victim_links == (winner,)
        assert outcome.damage == pytest.approx(damages[winner], rel=1e-12)
        extras = outcome.extras
        assert extras["candidates_tried"] + extras["candidates_skipped"] == len(damages)
        bound = extras["damage_bound"]
        if bound is not None:
            assert max(d for d in damages.values() if not math.isnan(d)) <= bound * (
                1 + BOUND_SLACK
            )
        if extras["candidates_skipped"]:
            assert outcome.damage * (1 + DAMAGE_TIE_RTOL) >= bound * (1 + BOUND_SLACK)

    def test_victim_pairs_return_the_full_scan_winner(self, tied_context):
        attack = MaxDamageAttack(tied_context, victim_set_size=2)
        outcome = attack.run()
        damages = {}
        for pair in combinations(attack.candidates, 2):
            single = ChosenVictimAttack(tied_context, list(pair), mode="paper").run()
            damages[pair] = single.damage if single.feasible else math.nan
        winner = _full_scan_winner(damages)
        assert outcome.extras["candidates_skipped"] > 0
        assert outcome.victim_links == winner
        assert outcome.damage == pytest.approx(damages[winner], rel=1e-9)

    def test_tied_scan_stops_after_the_first_tied_candidate(self, tied_context):
        outcome = MaxDamageAttack(tied_context).run()
        trace = outcome.extras["search_trace"]
        assert trace[-1]["victims"] == (1,)
        assert outcome.extras["candidates_tried"] == len(trace) == 2
        assert outcome.extras["candidates_skipped"] == 5
        assert outcome.damage == pytest.approx(outcome.extras["damage_bound"], rel=1e-12)

    def test_bound_is_solved_off_the_scan_model(self, tied_context):
        attack = MaxDamageAttack(tied_context)
        outcome = attack.run()
        extras = outcome.extras
        assert extras["damage_bound"] is not None
        assert attack._solver._persistent.solves == (
            extras["candidates_tried"] - extras["presolve_pruned"]
        )

    def test_shared_solver_reuses_the_memoised_bound(self, tied_context):
        first = MaxDamageAttack(tied_context)
        bound = first.run().extras["damage_bound"]
        with recording(PerfRecorder()) as recorder:
            second = MaxDamageAttack(tied_context, shared_solver=first._solver).run()
        assert second.extras["damage_bound"] == bound
        assert recorder.counters.get("lp_model_build", 0) == 0
        assert recorder.counters["lp_solve"] == (
            second.extras["candidates_tried"] - second.extras["presolve_pruned"]
        )

    def test_stop_event_carries_the_provenance(self, tied_context, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.enabled(path):
            outcome = MaxDamageAttack(tied_context).run()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        (event,) = [r for r in records if r.get("name") == "max_damage_early_stop"]
        assert event["bound"] == outcome.extras["damage_bound"]
        assert event["damage"] == outcome.damage
        assert event["candidates_tried"] == 2
        assert event["candidates_skipped"] == 5

    def test_no_bound_without_a_pending_candidate(self, fig1_context):
        outcome = MaxDamageAttack(fig1_context, candidate_links=[9]).run()
        assert outcome.extras["damage_bound"] is None
        assert outcome.extras["candidates_skipped"] == 0

    def test_infeasible_scan_computes_no_bound(self, fig1_scenario, monkeypatch):
        def refuse(self, free_links):
            raise AssertionError("no incumbent, so no bound is needed")

        monkeypatch.setattr(IncrementalLpSolver, "damage_bound", refuse)
        # A 1 ms cap is far too little delay to frame anyone.
        scenario = dataclasses.replace(fig1_scenario, cap=1.0)
        outcome = MaxDamageAttack(scenario.attack_context(["B", "C"])).run()
        assert not outcome.feasible
        assert outcome.status == "no feasible victim set among 3 candidates"
