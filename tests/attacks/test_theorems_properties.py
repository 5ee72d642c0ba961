"""Property-based tests encoding the paper's theorems.

Random small scenarios are generated per example; the theorems must hold on
every one of them:

- **Theorem 1**: a perfect cut makes chosen-victim scapegoating feasible
  (we use the constructive check with an uncapped context — the cap is a
  practical constraint the theorem does not model).
- **Theorem 2 (support nesting)**: with the bands fixed, a larger
  Constraint-1 support keeps every feasible LP feasible and never lowers
  its optimal damage.
- **Theorem 3 (undetectable direction)**: under a perfect cut a stealthy
  solution exists with exactly zero residual.
- **Theorem 3 (detectable direction)**: confined attacks that succeed
  under an imperfect cut always leave a residual above the victim shift.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.attacks.chosen_victim import ChosenVictimAttack, build_chosen_victim_bands
from repro.attacks.cuts import is_perfect_cut, perfectly_cut_links
from repro.attacks.lp import IncrementalLpSolver, solve_manipulation_lp
from repro.attacks.max_damage import DAMAGE_TIE_RTOL
from repro.detection.consistency import ConsistencyDetector
from repro.metrics.link_metrics import uniform_delay_metrics
from repro.routing.selection import select_identifiable_paths
from repro.scenarios.scenario import Scenario
from repro.tomography.linear_system import LinearSystem
from repro.topology.generators.simple import grid_topology, ladder_topology


def _build_scenario(kind: str, seed: int) -> Scenario:
    """A random *fully identifiable* scenario (the paper's assumption).

    Monitors are added until the selected paths reach full column rank;
    the theorems presuppose eq. (2) is well posed, so rank-deficient
    samples would test a different (pseudo-inverse) estimator.
    """
    if kind == "grid":
        topology = grid_topology(3, 3)
    else:
        topology = ladder_topology(4)
    nodes = topology.nodes()
    rng = np.random.default_rng(seed)
    order = list(range(len(nodes)))
    rng.shuffle(order)
    count = max(3, (2 * topology.num_nodes) // 3)
    path_set = None
    while count <= topology.num_nodes:
        monitors = [nodes[i] for i in order[:count]]
        path_set = select_identifiable_paths(
            topology, monitors, redundancy=3, max_per_pair=30, rng=rng
        )
        if LinearSystem(path_set.routing_matrix()).rank == topology.num_links:
            break
        count += 1
    metrics = uniform_delay_metrics(topology, rng=rng)
    return Scenario(
        topology=topology,
        monitors=tuple(monitors),
        path_set=path_set,
        true_metrics=metrics,
        cap=None,  # theorems do not model the practical cap
        name=f"{kind}-{seed}",
    )


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["grid", "ladder"]),
    seed=st.integers(0, 10_000),
    attacker_index=st.integers(0, 100),
)
def test_theorem1_perfect_cut_implies_feasibility(kind, seed, attacker_index):
    scenario = _build_scenario(kind, seed)
    nodes = scenario.topology.nodes()
    attacker = nodes[attacker_index % len(nodes)]
    context = scenario.attack_context([attacker])
    cut = perfectly_cut_links(
        scenario.path_set, [attacker], exclude_links=context.controlled_links
    )
    assume(cut)
    victim = cut[0]
    assert is_perfect_cut(scenario.path_set, [attacker], [victim])
    outcome = ChosenVictimAttack(context, [victim]).run()
    assert outcome.feasible


def _warm_solve(context, support, bands, cap):
    return IncrementalLpSolver(
        context.system.estimator, context.baseline_estimate, support, context.num_paths,
        bands, cap=cap,
    ).solve()


def _cold_solve(context, support, bands, cap):
    return solve_manipulation_lp(
        context.system.estimator, context.baseline_estimate, support, context.num_paths,
        bands, cap=cap,
    )


@settings(max_examples=50, deadline=None)
@given(
    kind=st.sampled_from(["grid", "ladder"]),
    seed=st.integers(0, 10_000),
    attacker_index=st.integers(0, 100),
    bands_kind=st.sampled_from([("paper", False), ("exclusive", False), ("paper", True)]),
    data=st.data(),
)
def test_theorem2_larger_support_only_enlarges_the_feasible_set(
    kind, seed, attacker_index, bands_kind, data
):
    """Theorem 2's deterministic core, ``M_k ⊂ M_s``: every manipulation
    supported on ``S`` is also supported on ``S' ⊇ S``, so with the bands
    held fixed a feasible LP stays feasible and its optimal damage cannot
    fall (beyond ``DAMAGE_TIE_RTOL``, the parity tolerance).

    ``S`` is an attacker's support and ``S'`` adds randomly drawn paths.
    Each victim's chosen-victim bands are built once from the attacker's
    context and solved at both supports, on the warm engine and on the
    cold reference, under the paper's 2,000 ms cap.
    """
    scenario = _build_scenario(kind, seed)
    nodes = scenario.topology.nodes()
    context = scenario.attack_context([nodes[attacker_index % len(nodes)]])
    support = list(context.support)
    outside = sorted(set(range(context.num_paths)) - set(support))
    extra = data.draw(
        st.sets(st.sampled_from(outside), min_size=1) if outside else st.just(set()),
        label="extra paths",
    )
    larger = sorted(set(support) | extra)
    mode, confined = bands_kind
    for victim in range(context.num_links):
        if victim in context.controlled_links:
            continue
        bands = build_chosen_victim_bands(context, (victim,), mode, confined=confined)
        for solve in (_warm_solve, _cold_solve):
            small = solve(context, support, bands, 2000.0)
            if not small.feasible:
                continue
            big = solve(context, larger, bands, 2000.0)
            assert big.feasible, (victim, solve.__name__)
            assert big.damage >= small.damage * (1 - DAMAGE_TIE_RTOL), (
                victim, solve.__name__, small.damage, big.damage
            )


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["grid", "ladder"]),
    seed=st.integers(0, 10_000),
    attacker_index=st.integers(0, 100),
)
def test_theorem3_perfect_cut_undetectable(kind, seed, attacker_index):
    scenario = _build_scenario(kind, seed)
    nodes = scenario.topology.nodes()
    attacker = nodes[attacker_index % len(nodes)]
    context = scenario.attack_context([attacker])
    cut = perfectly_cut_links(
        scenario.path_set, [attacker], exclude_links=context.controlled_links
    )
    assume(cut)
    outcome = ChosenVictimAttack(context, [cut[0]], stealthy=True, confined=True).run()
    assert outcome.feasible  # Theorem 1's construction is stealthy + confined
    # alpha far below any real manipulation (hundreds of ms) but above LP
    # solver round-off on the stealth equality constraints.
    detector = ConsistencyDetector(scenario.path_set.routing_matrix(), alpha=1e-2)
    result = detector.check(outcome.observed_measurements)
    assert not result.detected


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(["grid", "ladder"]),
    seed=st.integers(0, 10_000),
    attacker_index=st.integers(0, 100),
)
def test_theorem3_imperfect_cut_confined_attack_detected(kind, seed, attacker_index):
    """Every feasible confined attack on an imperfectly cut victim is caught.

    Confined imperfect-cut attacks are often infeasible; the test scans all
    imperfect victims and asserts detection on every feasible one (skipping
    samples with none feasible).
    """
    scenario = _build_scenario(kind, seed)
    nodes = scenario.topology.nodes()
    attacker = nodes[attacker_index % len(nodes)]
    context = scenario.attack_context([attacker])
    imperfect = [
        link.index
        for link in scenario.topology.links()
        if link.index not in context.controlled_links
        and scenario.path_set.paths_containing_link(link.index)
        and not is_perfect_cut(scenario.path_set, [attacker], [link.index])
    ]
    assume(imperfect)
    detector = ConsistencyDetector(scenario.path_set.routing_matrix(), alpha=200.0)
    any_feasible = False
    for victim in imperfect:
        outcome = ChosenVictimAttack(context, [victim], confined=True).run()
        if not outcome.feasible:
            continue
        any_feasible = True
        result = detector.check(outcome.observed_measurements)
        assert result.detected
    assume(any_feasible)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["grid", "ladder"]),
    seed=st.integers(0, 10_000),
    attacker_index=st.integers(0, 100),
)
def test_constraint1_always_satisfied_by_lp_solutions(kind, seed, attacker_index):
    """Whatever the LP returns must satisfy Constraint 1 exactly."""
    scenario = _build_scenario(kind, seed)
    nodes = scenario.topology.nodes()
    attacker = nodes[attacker_index % len(nodes)]
    context = scenario.attack_context([attacker])
    candidates = [
        j
        for j in range(context.num_links)
        if j not in context.controlled_links
        and scenario.path_set.paths_containing_link(j)
    ]
    assume(candidates)
    outcome = ChosenVictimAttack(context, [candidates[0]]).run()
    assume(outcome.feasible)
    m = outcome.manipulation
    assert np.all(m >= -1e-9)
    support = set(context.support)
    for row in range(context.num_paths):
        if row not in support:
            assert abs(m[row]) < 1e-9
