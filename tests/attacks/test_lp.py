"""Tests for the shared manipulation LP."""

import math

import numpy as np
import pytest

from repro.attacks.chosen_victim import build_chosen_victim_bands
from repro.attacks.lp import (
    BandConstraints,
    IncrementalLpSolver,
    solve_manipulation_lp,
    theorem1_manipulation,
)
from repro.exceptions import AttackError, ValidationError
from repro.tomography.linear_system import LinearSystem


@pytest.fixture()
def fig1_system(fig1_scenario):
    matrix = fig1_scenario.path_set.routing_matrix()
    return matrix, LinearSystem(matrix).estimator, fig1_scenario.true_metrics


class TestBandConstraints:
    def test_unbounded_admits_everything(self):
        bands = BandConstraints.unbounded(3)
        bands.validate()
        assert np.all(np.isinf(bands.lower)) and np.all(np.isinf(bands.upper))

    def test_tightening_keeps_most_restrictive(self):
        bands = BandConstraints.unbounded(2)
        bands.require_at_most(0, 100.0)
        bands.require_at_most(0, 50.0)
        bands.require_at_most(0, 80.0)
        assert bands.upper[0] == 50.0
        bands.require_at_least(1, 10.0)
        bands.require_at_least(1, 30.0)
        assert bands.lower[1] == 30.0

    def test_empty_band_detected(self):
        bands = BandConstraints.unbounded(1)
        bands.require_at_most(0, 10.0)
        bands.require_at_least(0, 20.0)
        with pytest.raises(ValidationError, match="empty band"):
            bands.validate()


class TestSolveLp:
    def test_unconstrained_maximises_to_cap(self, fig1_system):
        _, operator, x = fig1_system
        support = [0, 1, 2]
        bands = BandConstraints.unbounded(10)
        solution = solve_manipulation_lp(operator, x, support, 23, bands, cap=100.0)
        assert solution.feasible
        assert solution.damage == pytest.approx(300.0)
        assert np.allclose(solution.manipulation[support], 100.0)

    def test_constraint1_support_respected(self, fig1_system):
        _, operator, x = fig1_system
        bands = BandConstraints.unbounded(10)
        solution = solve_manipulation_lp(operator, x, [3, 7], 23, bands, cap=50.0)
        off = [i for i in range(23) if i not in (3, 7)]
        assert np.all(solution.manipulation[off] == 0.0)

    def test_infeasible_band_reported(self, fig1_system):
        _, operator, x = fig1_system
        bands = BandConstraints.unbounded(10)
        # Demand an estimate increase on link 9 without support anywhere.
        bands.require_at_least(9, x[9] + 100.0)
        solution = solve_manipulation_lp(operator, x, [], 23, bands)
        assert not solution.feasible
        assert solution.manipulation is None
        assert solution.damage == 0.0

    def test_empty_support_with_satisfied_bands(self, fig1_system):
        _, operator, x = fig1_system
        bands = BandConstraints.unbounded(10)
        solution = solve_manipulation_lp(operator, x, [], 23, bands)
        assert solution.feasible
        assert solution.damage == 0.0

    def test_unbounded_without_cap_flagged(self, fig1_system):
        _, operator, x = fig1_system
        bands = BandConstraints.unbounded(10)
        solution = solve_manipulation_lp(operator, x, [0, 1], 23, bands, cap=None)
        assert solution.feasible
        assert solution.unbounded  # the flag is the only infinity signal
        assert solution.manipulation is not None  # concrete vector still given
        # The damage contract: always the L1 norm of the returned vector,
        # never a bare inf detached from it.
        assert math.isfinite(solution.damage)
        assert solution.damage == pytest.approx(
            float(np.abs(solution.manipulation).sum())
        )

    def test_damage_always_l1_of_manipulation(self, fig1_system):
        """Regression: ``damage == ||manipulation||_1`` in every feasible
        outcome, bounded or not (the bug returned damage=inf alongside a
        finite capped vector)."""
        _, operator, x = fig1_system
        bands = BandConstraints.unbounded(10)
        for cap in (None, 50.0, 2000.0):
            solution = solve_manipulation_lp(operator, x, [0, 1], 23, bands, cap=cap)
            assert solution.feasible
            assert solution.damage == pytest.approx(
                float(np.abs(solution.manipulation).sum())
            )

    def test_band_constraint_respected(self, fig1_system):
        matrix, operator, x = fig1_system
        support = list(range(23))
        bands = BandConstraints.unbounded(10)
        bands.require_at_most(0, x[0] + 10.0)
        solution = solve_manipulation_lp(operator, x, support, 23, bands, cap=2000.0)
        assert solution.feasible
        estimate = x + operator @ solution.manipulation
        assert estimate[0] <= x[0] + 10.0 + 1e-6

    def test_consistency_matrix_forces_zero_residual(self, fig1_system):
        matrix, operator, x = fig1_system
        projector = np.eye(23) - matrix @ operator
        support = list(range(23))
        bands = BandConstraints.unbounded(10)
        bands.require_at_least(0, x[0] + 50.0)
        solution = solve_manipulation_lp(
            operator, x, support, 23, bands, cap=2000.0, consistency_matrix=projector
        )
        assert solution.feasible
        residual = projector @ solution.manipulation
        assert np.abs(residual).max() < 1e-6

    def test_consistency_matrix_shape_checked(self, fig1_system):
        _, operator, x = fig1_system
        bands = BandConstraints.unbounded(10)
        with pytest.raises(AttackError, match="consistency"):
            solve_manipulation_lp(
                operator, x, [0], 23, bands, consistency_matrix=np.eye(5)
            )

    def test_bad_support_row_rejected(self, fig1_system):
        _, operator, x = fig1_system
        bands = BandConstraints.unbounded(10)
        with pytest.raises(AttackError, match="support row"):
            solve_manipulation_lp(operator, x, [99], 23, bands)

    def test_negative_cap_rejected(self, fig1_system):
        _, operator, x = fig1_system
        bands = BandConstraints.unbounded(10)
        with pytest.raises(ValidationError):
            solve_manipulation_lp(operator, x, [0], 23, bands, cap=-5.0)


def _assert_same_optimum(reference, warm, operator, x, bands):
    """The warm path reaches the reference's optimum within its bands.

    Where optima are non-unique the two solvers may return different
    vertices, so the vectors are checked against the bands rather than
    against each other.
    """
    assert warm.feasible == reference.feasible
    if reference.feasible:
        assert warm.damage == pytest.approx(reference.damage, rel=1e-9, abs=1e-9)
        estimate = x + operator @ warm.manipulation
        assert np.all(estimate >= bands.lower - 1e-6)
        assert np.all(estimate <= bands.upper + 1e-6)


class TestIncrementalLpSolver:
    """Incremental band edits must reach the optimum of a re-assembly."""

    @staticmethod
    def _base_bands(x):
        bands = BandConstraints.unbounded(10)
        for j in range(5):
            bands.require_at_most(j, 99.0)
        bands.require_at_least(7, float(x[7]))
        return bands

    def test_override_matches_from_scratch(self, fig1_system):
        _, operator, x = fig1_system
        support = list(range(0, 23, 2))
        solver = IncrementalLpSolver(
            operator, x, support, 23, self._base_bands(x), cap=2000.0
        )
        for j in (5, 8, 9):
            scratch = self._base_bands(x)
            scratch.lower[j], scratch.upper[j] = 801.0, math.inf
            reference = solve_manipulation_lp(
                operator, x, support, 23, scratch, cap=2000.0
            )
            incremental = solver.solve({j: (801.0, math.inf)})
            _assert_same_optimum(reference, incremental, operator, x, scratch)

    def test_override_replaces_existing_band_rows(self, fig1_system):
        """Overriding a link that already has base rows swaps them out."""
        _, operator, x = fig1_system
        support = list(range(23))
        solver = IncrementalLpSolver(
            operator, x, support, 23, self._base_bands(x), cap=2000.0
        )
        scratch = BandConstraints.unbounded(10)
        for j in range(5):
            if j != 2:
                scratch.require_at_most(j, 99.0)
        scratch.require_at_least(7, float(x[7]))
        scratch.lower[2], scratch.upper[2] = 801.0, math.inf
        reference = solve_manipulation_lp(operator, x, support, 23, scratch, cap=2000.0)
        incremental = solver.solve({2: (801.0, math.inf)})
        _assert_same_optimum(reference, incremental, operator, x, scratch)

    def test_no_overrides_matches_base(self, fig1_system):
        _, operator, x = fig1_system
        support = [0, 1, 2]
        bands = self._base_bands(x)
        solver = IncrementalLpSolver(operator, x, support, 23, bands, cap=500.0)
        reference = solve_manipulation_lp(operator, x, support, 23, bands, cap=500.0)
        incremental = solver.solve()
        _assert_same_optimum(reference, incremental, operator, x, bands)

    def test_unbounding_override_removes_rows(self, fig1_system):
        """Overriding to an unbounded band deletes the link's base rows."""
        _, operator, x = fig1_system
        support = [0, 1, 2]
        solver = IncrementalLpSolver(
            operator, x, support, 23, self._base_bands(x), cap=100.0
        )
        scratch = self._base_bands(x)
        scratch.lower[0], scratch.upper[0] = -math.inf, math.inf
        reference = solve_manipulation_lp(operator, x, support, 23, scratch, cap=100.0)
        incremental = solver.solve({0: (-math.inf, math.inf)})
        _assert_same_optimum(reference, incremental, operator, x, scratch)

    def test_consistency_matrix_applied(self, fig1_system):
        matrix, operator, x = fig1_system
        projector = np.eye(23) - matrix @ operator
        support = list(range(23))
        solver = IncrementalLpSolver(
            operator,
            x,
            support,
            23,
            BandConstraints.unbounded(10),
            cap=2000.0,
            consistency_matrix=projector,
        )
        solution = solver.solve({0: (float(x[0] + 50.0), math.inf)})
        assert solution.feasible
        assert np.abs(projector @ solution.manipulation).max() < 1e-6

    def test_empty_support_uses_baseline_check(self, fig1_system):
        _, operator, x = fig1_system
        solver = IncrementalLpSolver(
            operator, x, [], 23, BandConstraints.unbounded(10), cap=2000.0
        )
        assert solver.solve().feasible
        # A demanded estimate raise is impossible with no supported paths.
        assert not solver.solve({9: (float(x[9] + 100.0), math.inf)}).feasible

    def test_invalid_override_rejected(self, fig1_system):
        _, operator, x = fig1_system
        solver = IncrementalLpSolver(
            operator, x, [0], 23, BandConstraints.unbounded(10), cap=2000.0
        )
        with pytest.raises(ValidationError, match="empty band"):
            solver.solve({0: (10.0, 5.0)})
        with pytest.raises(AttackError, match="out of range"):
            solver.solve({99: (0.0, 1.0)})


class TestDamageBound:
    """``damage_bound``: the optimum with rows freed, off the warm model."""

    @staticmethod
    def _solver(fig1_system, support=tuple(range(0, 23, 2))):
        _, operator, x = fig1_system
        return IncrementalLpSolver(
            operator, x, list(support), 23, TestIncrementalLpSolver._base_bands(x), cap=2000.0
        )

    def test_bounds_every_override_of_the_freed_links(self, fig1_system):
        solver = self._solver(fig1_system)
        free = (0, 5, 8, 9)
        bound = solver.damage_bound(free)
        _, operator, x = fig1_system
        scratch = TestIncrementalLpSolver._base_bands(x)
        for j in free:
            scratch.lower[j], scratch.upper[j] = -math.inf, math.inf
        reference = solve_manipulation_lp(operator, x, list(range(0, 23, 2)), 23, scratch)
        assert bound == pytest.approx(reference.damage, rel=1e-9)
        for j in free:
            solution = solver.solve({j: (801.0, math.inf)})
            if solution.feasible:
                assert solution.damage <= bound * (1 + 1e-10)

    def test_memoised_per_freed_set(self, fig1_system):
        from repro.obs import PerfRecorder, recording

        solver = self._solver(fig1_system)
        bound = solver.damage_bound([9, 8])
        with recording(PerfRecorder()) as recorder:
            assert solver.damage_bound([8, 9]) == bound
        assert recorder.counters.get("lp_solve", 0) == 0

    def test_empty_support_bound_is_zero(self, fig1_system):
        assert self._solver(fig1_system, support=()).damage_bound([9]) == 0.0

    def test_out_of_range_link_rejected(self, fig1_system):
        with pytest.raises(AttackError, match="out of range"):
            self._solver(fig1_system).damage_bound([99])


class TestUnboundedResolve:
    def test_cap_none_single_assembly(self, fig1_system, tmp_path):
        """The unbounded re-solve path must reuse assembled constraints:
        exactly one lp_assembly span for the whole call."""
        from repro import obs

        _, operator, x = fig1_system
        bands = BandConstraints.unbounded(10)
        path = tmp_path / "run.jsonl"
        with obs.enabled(path):
            solution = solve_manipulation_lp(operator, x, [0, 1], 23, bands, cap=None)
        assert solution.unbounded
        assert obs.summarize_run(path)["spans"]["lp_assembly"]["calls"] == 1


class TestTheorem1Construction:
    def test_manipulation_is_r_delta(self, fig1_system):
        matrix, _, _ = fig1_system
        delta = np.zeros(10)
        delta[0] = 700.0
        m = theorem1_manipulation(matrix, delta)
        assert np.array_equal(m, matrix @ delta)

    def test_perfect_cut_construction_satisfies_constraint1(self, fig1_scenario):
        """Theorem 1: under a perfect cut, m = R*delta is zero off-support."""
        matrix = fig1_scenario.path_set.routing_matrix()
        # B, C perfectly cut link 0; delta supported on L_m ∪ {0}.
        delta = np.zeros(10)
        delta[0] = 750.0
        m = theorem1_manipulation(matrix, delta)
        support = set(
            fig1_scenario.path_set.paths_containing_any_node({"B", "C"})
        )
        for row in range(matrix.shape[0]):
            if row not in support:
                assert m[row] == 0.0
        assert np.all(m >= 0.0)

    def test_perfect_cut_witness(self, fig1_context):
        """Theorem 1: m = R*delta forges a chosen victim, undetectably.

        B and C perfectly cut link 0 and R has full column rank, so
        raising link 0 exactly to its chosen-victim lower band gives a
        Constraint-1 manipulation that meets every band and leaves no
        measurement residual.
        """
        context = fig1_context
        assert context.system.rank == context.num_links == 10
        bands = build_chosen_victim_bands(context, (0,), "paper")
        delta = np.zeros(context.num_links)
        delta[0] = bands.lower[0] - context.baseline_estimate[0]
        assert delta[0] > 0.0
        m = theorem1_manipulation(context.routing_matrix, delta)
        # Constraint 1: non-negative, supported on attacker paths only.
        assert np.all(m >= 0.0)
        off = sorted(set(range(context.num_paths)) - set(context.support))
        assert np.all(m[off] == 0.0)
        # The forged estimate satisfies every band.
        estimate = context.predicted_estimate(m)
        assert np.all(estimate >= bands.lower - 1e-6)
        assert np.all(estimate <= bands.upper + 1e-6)
        # Zero residual: the witness is undetectable (Theorem 3).
        assert np.abs(context.system.residual_projector @ m).max() < 1e-6
