"""LP engine: the warm path, its parity with the reference, presolve.

Every production manipulation LP is solved on the persistent warm-started
HiGHS model.  The contract this suite enforces end-to-end: the warm path
and every shortcut (batched ``solve_many``, Constraint-1 presolve pruner)
must agree with the cold ``linprog`` reference (``solve_manipulation_lp``)
on *feasibility* and (for true LP-equivalent paths) on *optimal damage*
to 1e-9 — across every strategy and both tomography backends.
"""

import json
import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import lp
from repro.attacks.chosen_victim import ChosenVictimAttack, build_chosen_victim_bands
from repro.attacks.hybrid import FrameAndBlurAttack
from repro.attacks.lp import (
    PRESOLVE_STATUS_PREFIX,
    BandConstraints,
    IncrementalLpSolver,
    solve_manipulation_lp,
)
from repro.attacks.lp_engine import PersistentLpSolver, prune_capacities
from repro.attacks.max_damage import MaxDamageAttack
from repro.attacks.obfuscation import ObfuscationAttack
from repro.exceptions import ValidationError
from repro.obs import core as obs
from repro.sweep.cache import FactorizationCache
from repro.tomography.linear_system import LinearSystem


def _context(fig1_scenario, backend: str):
    """A fresh B,C attack context on the requested tomography backend."""
    matrix = fig1_scenario.path_set.routing_matrix()
    return fig1_scenario.attack_context(
        ["B", "C"], system=LinearSystem(matrix, backend=backend)
    )


def _strategies(context, **kwargs):
    """One instance of every LP-backed strategy on ``context``."""
    return {
        "chosen-victim": ChosenVictimAttack(context, [0], **kwargs),
        "max-damage": MaxDamageAttack(context, **kwargs),
        "obfuscation": ObfuscationAttack(context, min_victims=1, **kwargs),
        "frame-and-blur": FrameAndBlurAttack(context, [0], **kwargs),
    }


class TestOneLpPath:
    """The warm HiGHS model is the only engine; there is nothing to pick."""

    def test_every_strategy_solves_on_the_warm_model(self, fig1_scenario, monkeypatch):
        from repro.obs import PerfRecorder, recording

        def no_cold_solves(*args, **kwargs):
            raise AssertionError("production code called the cold linprog reference")

        monkeypatch.setattr(lp, "linprog", no_cold_solves)
        context = _context(fig1_scenario, "dense")
        for name, attack in _strategies(context).items():
            with recording(PerfRecorder()) as recorder:
                outcome = attack.run()
            assert outcome.feasible, name
            assert recorder.counters["lp_model_build"] >= 1, name
            assert recorder.counters["lp_solve"] >= 1, name

    def test_engine_keyword_is_gone(self, fig1_context):
        bands = BandConstraints.unbounded(fig1_context.num_links)
        for build in (
            lambda: ChosenVictimAttack(fig1_context, [0], engine="highs"),
            lambda: MaxDamageAttack(fig1_context, engine="highs"),
            lambda: ObfuscationAttack(fig1_context, engine="highs"),
            lambda: IncrementalLpSolver(
                fig1_context.operator,
                fig1_context.baseline_estimate,
                fig1_context.support,
                fig1_context.num_paths,
                bands,
                engine="highs",
            ),
            lambda: FactorizationCache(store=None).solver_for(
                fig1_context, engine="highs"
            ),
        ):
            with pytest.raises(TypeError, match="engine"):
                build()


class TestPruneCapacities:
    def test_positive_and_negative_mass(self):
        sub = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]])
        pos, neg = prune_capacities(sub)
        assert np.allclose(pos, [1.5, 0.0])
        assert np.allclose(neg, [2.0, 0.0])


class TestPersistentLpSolver:
    @staticmethod
    def _solver(context):
        bands = build_chosen_victim_bands(context, (), "paper")
        x = context.baseline_estimate
        return PersistentLpSolver(
            context.support_operator,
            np.asarray(bands.lower) - x,
            np.asarray(bands.upper) - x,
            var_upper=context.cap,
        )

    def test_warm_resolves_are_order_independent(self, fig1_context):
        solver = self._solver(fig1_context)
        abnormal = (
            fig1_context.thresholds.upper
            + fig1_context.margin
            - fig1_context.baseline_estimate[0]
        )
        first = solver.solve({0: (abnormal, math.inf)})
        other = solver.solve()
        again = solver.solve({0: (abnormal, math.inf)})
        assert first.optimal and other.optimal and again.optimal
        # Base bounds are restored after every solve, so repeating an
        # override yields the same optimum regardless of what ran between.
        np.testing.assert_allclose(first.values, again.values, atol=1e-9)

    def test_warm_start_reuses_basis(self, fig1_context):
        solver = self._solver(fig1_context)
        abnormal = (
            fig1_context.thresholds.upper
            + fig1_context.margin
            - fig1_context.baseline_estimate[0]
        )
        solver.solve({0: (abnormal, math.inf)})
        warm = solver.solve({0: (abnormal, math.inf)})
        # An identical re-solve from the previous basis is already optimal:
        # essentially zero simplex iterations (cold solves take several).
        assert warm.iterations <= 2

    def test_infeasible_override_reported(self, fig1_context):
        solver = self._solver(fig1_context)
        result = solver.solve({0: (1e9, math.inf)})
        assert not result.optimal
        assert result.values is None

    def test_bad_override_row_rejected(self, fig1_context):
        solver = self._solver(fig1_context)
        with pytest.raises(ValidationError, match="out of range"):
            solver.solve({99: (0.0, 1.0)})

    def test_warm_start_event_emitted(self, tmp_path, fig1_context):
        solver = self._solver(fig1_context)
        path = tmp_path / "run.jsonl"
        with obs.enabled(path):
            solver.solve()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        events = [r for r in records if r.get("name") == "lp_warm_start"]
        assert events and events[0]["optimal"]
        assert events[0]["rows_changed"] == 0

    def test_sparse_stealth_block_accepted(self, fig1_context):
        """The stealth block may arrive dense or CSR; HiGHS sees one problem."""
        context = fig1_context
        bands = build_chosen_victim_bands(context, (0,), "paper")
        x = context.baseline_estimate
        columns = context.residual_projector_support()
        keep = np.linalg.norm(columns, axis=1) > 1e-12
        dense, sparse = (
            PersistentLpSolver(
                context.support_operator,
                np.asarray(bands.lower) - x,
                np.asarray(bands.upper) - x,
                eq_rows=rows,
                var_upper=context.cap,
            ).solve()
            for rows in (columns[keep], scipy.sparse.csr_matrix(columns[keep]))
        )
        assert dense.optimal and sparse.optimal
        np.testing.assert_allclose(sparse.values, dense.values, rtol=1e-9, atol=1e-9)


class TestModelBuild:
    """The model HiGHS holds is the scipy CSR of the stacked constraint block."""

    @staticmethod
    def _blocks():
        rng = np.random.default_rng(7)
        sub = rng.normal(size=(9, 5))
        sub[rng.random(sub.shape) < 0.4] = 0.0  # exact zeros to skip
        sub[3] = 0.0  # a band row with no coefficient at all
        eq = rng.normal(size=(4, 5))
        eq[rng.random(eq.shape) < 0.4] = 0.0
        lower = rng.normal(size=9)
        upper = lower + rng.uniform(1.0, 2.0, size=9)
        lower[[1, 4]] = -np.inf
        upper[[2, 4]] = np.inf
        return sub, eq, lower, upper

    @pytest.mark.parametrize("eq_form", [None, "dense", "csr"])
    def test_model_matches_the_scipy_csr_reference(self, eq_form):
        from repro.utils.highs import highs

        sub, eq, lower, upper = self._blocks()
        eq_rows = {None: None, "dense": eq, "csr": scipy.sparse.csr_matrix(eq)}[eq_form]
        solver = PersistentLpSolver(sub, lower, upper, eq_rows=eq_rows, var_upper=50.0)
        lp = solver._model.getLp()

        blocks = [sub] if eq_form is None else [sub, eq]
        reference = scipy.sparse.csr_matrix(np.vstack(blocks))
        num_eq = reference.shape[0] - sub.shape[0]
        held = scipy.sparse.csc_matrix(
            (
                np.asarray(lp.a_matrix_.value_),
                np.asarray(lp.a_matrix_.index_),
                np.asarray(lp.a_matrix_.start_),
            ),
            shape=(lp.num_row_, lp.num_col_),
        ).tocsr()  # HiGHS stores the matrix column-wise once passed
        assert (lp.num_row_, lp.num_col_) == reference.shape
        assert np.array_equal(held.indptr, reference.indptr)
        assert np.array_equal(held.indices, reference.indices)
        assert np.array_equal(held.data, reference.data)
        assert np.array_equal(lp.row_lower_, np.concatenate([lower, np.zeros(num_eq)]))
        assert np.array_equal(lp.row_upper_, np.concatenate([upper, np.zeros(num_eq)]))
        assert np.array_equal(lp.col_lower_, np.zeros(5))
        assert np.array_equal(lp.col_upper_, np.full(5, 50.0))
        assert np.array_equal(lp.col_cost_, -np.ones(5))
        assert all(kind == highs.HighsVarType.kContinuous for kind in lp.integrality_)

    def test_eq_rows_width_checked(self):
        sub, eq, lower, upper = self._blocks()
        with pytest.raises(ValidationError, match="eq_rows"):
            PersistentLpSolver(sub, lower, upper, eq_rows=eq[:, :4], var_upper=1.0)


class TestEngineParity:
    """The production warm path against the cold ``linprog`` reference.

    Each strategy runs as shipped and again inside ``cold_lp_reference()``,
    where every solve is answered by ``solve_manipulation_lp``.  The
    feasible/unbounded flags and the chosen victims must be identical and
    damage must agree within 1e-9 (absolute + relative), on both
    tomography backends.  The optimal vertex may differ where optima are
    non-unique, so the manipulation vectors are not compared entry by
    entry — each is checked against its own bands instead.
    """

    BACKENDS = ("dense", "sparse")

    @staticmethod
    def _assert_parity(cold, warm):
        assert warm.feasible == cold.feasible
        assert warm.victim_links == cold.victim_links
        if cold.feasible:
            assert warm.damage == pytest.approx(cold.damage, rel=1e-9, abs=1e-9)
            assert warm.extras["unbounded"] == cold.extras["unbounded"]

    def _run_both(self, cold_lp_reference, make):
        warm = make().run()
        with cold_lp_reference():
            cold = make().run()
        self._assert_parity(cold, warm)
        return cold, warm

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chosen_victim_parity(self, fig1_scenario, cold_lp_reference, backend):
        context = _context(fig1_scenario, backend)
        for victim in range(context.num_links):
            if victim in context.controlled_links:
                continue
            self._run_both(
                cold_lp_reference, lambda: ChosenVictimAttack(context, [victim])
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_max_damage_parity(self, fig1_scenario, cold_lp_reference, backend):
        context = _context(fig1_scenario, backend)
        self._run_both(cold_lp_reference, lambda: MaxDamageAttack(context))
        # The Fig. 5 scan: the per-candidate damage map agrees point by point.
        warm_map = MaxDamageAttack(context).damage_by_victim()
        with cold_lp_reference():
            cold_map = MaxDamageAttack(context).damage_by_victim()
        assert set(cold_map) == set(warm_map)
        for j, damage in cold_map.items():
            if math.isnan(damage):
                assert math.isnan(warm_map[j])
            else:
                assert warm_map[j] == pytest.approx(damage, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_obfuscation_parity(self, fig1_scenario, cold_lp_reference, backend):
        context = _context(fig1_scenario, backend)
        self._run_both(
            cold_lp_reference, lambda: ObfuscationAttack(context, min_victims=1)
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_frame_and_blur_parity(self, fig1_scenario, cold_lp_reference, backend):
        context = _context(fig1_scenario, backend)
        self._run_both(cold_lp_reference, lambda: FrameAndBlurAttack(context, [0]))

    def test_stealthy_parity(self, fig1_scenario, cold_lp_reference):
        context = _context(fig1_scenario, "dense")
        for name in _strategies(context):
            cold, warm = self._run_both(
                cold_lp_reference,
                lambda: _strategies(context, stealthy=True)[name],
            )
            if warm.feasible:
                residual = context.residual_projector() @ warm.manipulation
                assert np.abs(residual).max() < 1e-6, name

    def test_unbounded_flag_parity(self, fig1_system_operator):
        operator, x = fig1_system_operator
        bands = BandConstraints.unbounded(10)
        cold = solve_manipulation_lp(operator, x, [0, 1], 23, bands, cap=None)
        warm = IncrementalLpSolver(operator, x, [0, 1], 23, bands, cap=None).solve()
        assert cold.unbounded and warm.unbounded
        # Both paths re-solve under the fixed 1e7 cap, and the concrete
        # vector each hands back is pinned at it.
        for solution in (cold, warm):
            assert float(solution.manipulation.max()) == pytest.approx(1e7, rel=1e-6)
        assert math.isfinite(warm.damage)
        assert warm.damage == pytest.approx(cold.damage, rel=1e-9, abs=1e-9)
        assert warm.damage == pytest.approx(
            float(np.abs(warm.manipulation).sum())
        )

    def test_incremental_override_parity(self, fig1_system_operator):
        operator, x = fig1_system_operator
        base = BandConstraints.unbounded(10)
        for j in range(5):
            base.require_at_most(j, 99.0)
        support = list(range(0, 23, 2))
        warm = IncrementalLpSolver(operator, x, support, 23, base, cap=2000.0)
        for overrides in ({}, {8: (801.0, math.inf)}, {2: (801.0, math.inf)}):
            bands = BandConstraints(base.lower.copy(), base.upper.copy())
            for j, (lower, upper) in overrides.items():
                bands.lower[j], bands.upper[j] = lower, upper
            a = solve_manipulation_lp(operator, x, support, 23, bands, cap=2000.0)
            b = warm.solve(overrides)
            assert b.feasible == a.feasible
            if a.feasible:
                assert b.damage == pytest.approx(a.damage, rel=1e-9, abs=1e-9)


@pytest.fixture()
def fig1_system_operator(fig1_scenario):
    from repro.tomography.linear_system import estimator_operator

    matrix = fig1_scenario.path_set.routing_matrix()
    return estimator_operator(matrix), fig1_scenario.true_metrics


class TestSolveMany:
    def test_matches_individual_solves(self, fig1_system_operator):
        operator, x = fig1_system_operator
        bands = BandConstraints.unbounded(10)
        solver = IncrementalLpSolver(operator, x, [0, 1, 2], 23, bands, cap=500.0)
        overrides = [{j: (801.0, math.inf)} for j in (5, 8, 9)]
        batched = list(solver.solve_many(iter(overrides)))
        for override, solution in zip(overrides, batched):
            reference = solver.solve(override)
            assert solution.feasible == reference.feasible
            if reference.feasible:
                assert solution.damage == reference.damage

    def test_generator_is_lazy(self, fig1_system_operator):
        from repro.obs import PerfRecorder, recording

        operator, x = fig1_system_operator
        bands = BandConstraints.unbounded(10)
        solver = IncrementalLpSolver(operator, x, [0, 1, 2], 23, bands, cap=500.0)
        overrides = [{j: (801.0, math.inf)} for j in (5, 8, 9)]
        with recording(PerfRecorder()) as recorder:
            stream = solver.solve_many(iter(overrides))
            next(stream)
        # Only the consumed candidate was processed (solved or pruned).
        processed = (
            recorder.counters["lp_solve"] + recorder.counters["lp_presolve_prune"]
        )
        assert processed == 1


class TestPresolvePruner:
    def test_hopeless_candidate_pruned_without_solving(self, fig1_system_operator):
        from repro.obs import PerfRecorder, recording

        operator, x = fig1_system_operator
        bands = BandConstraints.unbounded(10)
        solver = IncrementalLpSolver(operator, x, [0], 23, bands, cap=10.0)
        # A raise of 1e9 is far beyond cap * positive-mass on any link.
        with recording(PerfRecorder()) as recorder:
            solution = solver.solve({9: (float(x[9] + 1e9), math.inf)})
        assert not solution.feasible
        assert solution.status.startswith(PRESOLVE_STATUS_PREFIX)
        assert solver.presolve_pruned == 1
        assert recorder.counters.get("lp_solve", 0) == 0
        assert recorder.counters["lp_presolve_prune"] == 1

    def test_prune_event_emitted(self, tmp_path, fig1_system_operator):
        operator, x = fig1_system_operator
        bands = BandConstraints.unbounded(10)
        solver = IncrementalLpSolver(operator, x, [0], 23, bands, cap=10.0)
        path = tmp_path / "run.jsonl"
        with obs.enabled(path):
            solver.solve({9: (float(x[9] + 1e9), math.inf)})
        records = [json.loads(line) for line in path.read_text().splitlines()]
        events = [
            r
            for r in records
            if r.get("name") == "lp_presolve_prune" and "links" in r
        ]
        assert events and events[0]["links"] == [9]
        assert events[0]["reason"].startswith(PRESOLVE_STATUS_PREFIX)
        assert events[0]["pruned_total"] == 1

    def test_presolve_off_still_solves(self, fig1_system_operator):
        operator, x = fig1_system_operator
        bands = BandConstraints.unbounded(10)
        solver = IncrementalLpSolver(
            operator, x, [0], 23, bands, cap=10.0, presolve=False
        )
        solution = solver.solve({9: (float(x[9] + 1e9), math.inf)})
        assert not solution.feasible
        assert not solution.status.startswith(PRESOLVE_STATUS_PREFIX)
        assert solver.presolve_pruned == 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_never_prunes_a_feasible_candidate(self, data):
        """Soundness: a pruned override is LP-infeasible, always.

        Random operators (mixed-sign entries, so both capacity directions
        are exercised), random baselines, caps and override demands.  The
        pruner may *miss* infeasible candidates (it is deliberately
        incomplete) but must never reject one the LP can satisfy.
        """
        num_links = data.draw(st.integers(2, 5), label="num_links")
        num_paths = data.draw(st.integers(2, 6), label="num_paths")
        entries = data.draw(
            st.lists(
                st.floats(-1.0, 1.0, allow_nan=False, width=32),
                min_size=num_links * num_paths,
                max_size=num_links * num_paths,
            ),
            label="operator",
        )
        operator = np.asarray(entries, dtype=float).reshape(num_links, num_paths)
        x = np.asarray(
            data.draw(
                st.lists(
                    st.floats(0.0, 100.0, allow_nan=False, width=32),
                    min_size=num_links,
                    max_size=num_links,
                ),
                label="baseline",
            )
        )
        support = sorted(
            data.draw(
                st.sets(st.integers(0, num_paths - 1), min_size=1),
                label="support",
            )
        )
        cap = data.draw(st.floats(1.0, 200.0, allow_nan=False), label="cap")
        j = data.draw(st.integers(0, num_links - 1), label="victim")
        demand = data.draw(st.floats(0.0, 500.0, allow_nan=False), label="demand")
        raise_direction = data.draw(st.booleans(), label="raise")
        if raise_direction:
            override = {j: (float(x[j] + demand), math.inf)}
        else:
            override = {j: (-math.inf, float(x[j] - demand))}

        bands = BandConstraints.unbounded(num_links)
        pruning = IncrementalLpSolver(
            operator, x, support, num_paths, bands, cap=cap, presolve=True
        )
        reason = pruning.presolve_prune_reason(override)
        if reason is not None:
            # The cold reference decides feasibility independently of the
            # warm model the pruner sits in front of.
            (lower, upper), = override.values()
            bands.lower[j], bands.upper[j] = lower, upper
            reference = solve_manipulation_lp(
                operator, x, support, num_paths, bands, cap=cap
            )
            assert not reference.feasible


class TestRebase:
    """Bound-only churn epochs reuse the warm model via changeRowBounds."""

    def _solver(self, fig1_system_operator, **kwargs):
        operator, x = fig1_system_operator
        bands = BandConstraints.unbounded(10)
        bands.require_at_most(9, float(x[9] + 50.0))
        return IncrementalLpSolver(
            operator, x, [0, 1, 2], 23, bands, cap=500.0, **kwargs
        )

    def test_rebase_matches_cold_solver(self, fig1_system_operator):
        operator, x = fig1_system_operator
        solver = self._solver(fig1_system_operator)
        new_x = x + 3.0
        new_bands = BandConstraints.unbounded(10)
        new_bands.require_at_most(9, float(new_x[9] + 50.0))
        solver.rebase(new_x, new_bands)
        cold = IncrementalLpSolver(
            operator, new_x, [0, 1, 2], 23, new_bands, cap=500.0
        )
        for overrides in ({}, {8: (float(new_x[8] + 801.0), math.inf)}):
            a = solver.solve(overrides)
            b = cold.solve(overrides)
            assert a.feasible == b.feasible
            if a.feasible:
                assert a.damage == pytest.approx(b.damage, rel=1e-9, abs=1e-9)

    def test_warm_model_survives_rebase(self, fig1_system_operator):
        from repro.obs import PerfRecorder, recording

        operator, x = fig1_system_operator
        solver = self._solver(fig1_system_operator)
        solver.solve({})  # builds the persistent model
        persistent = solver._persistent
        assert persistent is not None
        solves_before = persistent.solves
        new_x = x + 5.0
        new_bands = BandConstraints.unbounded(10)
        new_bands.require_at_most(9, float(new_x[9] + 50.0))
        with recording(PerfRecorder()) as recorder:
            solver.rebase(new_x, new_bands)
            solver.solve({})
        # The same HiGHS model object kept solving: one rebase event, no
        # model rebuild, and the solve counter continued from where it was.
        assert recorder.counters["lp_rebase"] == 1
        assert recorder.counters.get("lp_model_build", 0) == 0
        assert solver._persistent is persistent
        assert persistent.solves == solves_before + 1

    def test_rebase_before_warm_build_is_clean(self, fig1_system_operator):
        from repro.obs import PerfRecorder, recording

        operator, x = fig1_system_operator
        solver = self._solver(fig1_system_operator)
        new_x = x + 1.0
        solver.rebase(new_x, BandConstraints.unbounded(10))
        with recording(PerfRecorder()) as recorder:
            solver.solve({})
        # First solve after an early rebase builds the model exactly once,
        # already on the rebased bounds.
        assert recorder.counters["lp_model_build"] == 1

    def test_rebase_validation(self, fig1_system_operator):
        solver = self._solver(fig1_system_operator)
        with pytest.raises(ValidationError, match="length"):
            solver.rebase(np.ones(4), BandConstraints.unbounded(10))
        with pytest.raises(ValidationError, match="per link"):
            solver.rebase(np.ones(10), BandConstraints.unbounded(4))
