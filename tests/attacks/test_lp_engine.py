"""LP engine: the warm path, its parity with the reference, the presolve pruner.

Every production manipulation LP is solved on the persistent warm-started
HiGHS model.  The contract this suite enforces end-to-end: the warm path
and every shortcut (batched ``solve_many``, Constraint-1 presolve pruner)
must agree with the cold ``linprog`` reference (``solve_manipulation_lp``)
on *feasibility* and (for true LP-equivalent paths) on *optimal damage*
to 1e-9 — across every strategy and both tomography backends.
"""

import itertools
import json
import math
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import lp, lp_engine
from repro.attacks.chosen_victim import ChosenVictimAttack, build_chosen_victim_bands
from repro.attacks.cuts import perfectly_cut_links
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
from repro.utils.highs import highs, row_wise_model


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
        cold = solver.solve({0: (abnormal, math.inf)})
        warm = solver.solve({0: (abnormal, math.inf)})
        # An identical re-solve from the previous basis is already optimal:
        # essentially zero simplex iterations (cold solves take several).
        # Both counts are read before the override is undone, which
        # would reset them.
        assert cold.iterations > 2
        assert 0 <= warm.iterations <= 2

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

    def test_capacities_computed_once_on_the_first_override(
        self, fig1_system_operator, monkeypatch
    ):
        calls = []

        def counting(sub):
            calls.append(sub.shape)
            return prune_capacities(sub)

        monkeypatch.setattr(lp, "prune_capacities", counting)
        operator, x = fig1_system_operator
        bands = BandConstraints.unbounded(10)
        solver = IncrementalLpSolver(operator, x, [0], 23, bands, cap=10.0)
        solver.solve()  # a one-shot solve never reads them
        assert calls == []
        for j in (9, 8):
            solver.solve({j: (float(x[j] + 1e9), math.inf)})
        assert calls == [(10, 1)]
        assert solver.presolve_pruned == 2

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
        pruning = IncrementalLpSolver(operator, x, support, num_paths, bands, cap=cap)
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


class _Lp(NamedTuple):
    """One chosen-victim LP in the engine's shifted form."""

    victim: int
    mode: str
    confined: bool
    perfect_cut: bool
    backend: str
    stealthy: bool
    sub: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    eq: np.ndarray | None
    cap: float

    @property
    def banded(self) -> bool:
        return bool(np.all(np.isfinite(self.lower) | np.isfinite(self.upper)))

    def persistent(self, lower=None) -> PersistentLpSolver:
        return PersistentLpSolver(
            self.sub,
            self.lower if lower is None else lower,
            self.upper,
            eq_rows=self.eq,
            var_upper=self.cap,
        )

    def fresh(self, lower=None, cost=None):
        """The plain model built by ``row_wise_model`` from the same arrays,
        configured as the engine configures its own (cost -1, HiGHS
        presolve off), and run once: (optimal, status, values)."""
        block = self.sub if self.eq is None else np.vstack([self.sub, self.eq])
        num_eq = block.shape[0] - self.sub.shape[0]
        rows, cols = np.nonzero(block)
        model = row_wise_model(
            -np.ones(self.sub.shape[1]) if cost is None else cost,
            np.full(self.sub.shape[1], float(self.cap)),
            np.concatenate([self.lower if lower is None else lower, np.zeros(num_eq)]),
            np.concatenate([self.upper, np.zeros(num_eq)]),
            np.searchsorted(rows, np.arange(block.shape[0] + 1)), cols, block[rows, cols],
        )
        model.setOptionValue("presolve", "off")
        model.run()
        status = model.getModelStatus()
        optimal = status == highs.HighsModelStatus.kOptimal
        values = np.array(model.getSolution().col_value) if optimal else None
        return optimal, str(model.modelStatusToString(status)), values


#: Attacker sets whose chosen-victim LPs include feasible, fully banded
#: ones: perfect cuts under confinement (Theorem 1) and exclusive wins.
_FIG1_ATTACKERS = (("B", "C"), ("A", "D"))
_ISP_ATTACKERS = (("bb4",), ("agg1", "agg3"))


@pytest.fixture(scope="module")
def chosen_victim_lps(fig1_scenario, small_isp_scenario):
    """Every chosen-victim LP of the Fig. 1 and mini-ISP attacker sets:
    exclusive, confined and paper bands, stealthy on and off, dense and
    sparse backends (contradictory bands never reach an LP, so they are
    left out)."""
    lps = []
    for scenario, attacker_sets in (
        (fig1_scenario, _FIG1_ATTACKERS),
        (small_isp_scenario, _ISP_ATTACKERS),
    ):
        matrix = scenario.path_set.routing_matrix()
        for backend, attackers in itertools.product(("dense", "sparse"), attacker_sets):
            context = scenario.attack_context(
                list(attackers), system=LinearSystem(matrix, backend=backend)
            )
            cut = set(perfectly_cut_links(scenario.path_set, attackers))
            columns = context.residual_projector_support()
            stealth_rows = columns[np.linalg.norm(columns, axis=1) > 1e-12]
            x = context.baseline_estimate
            for victim in range(context.num_links):
                if victim in context.controlled_links:
                    continue
                for mode, confined, stealthy in itertools.product(
                    ("exclusive", "paper"), (False, True), (False, True)
                ):
                    bands = build_chosen_victim_bands(
                        context, (victim,), mode, confined=confined
                    )
                    if np.any(bands.lower > bands.upper):
                        continue
                    lps.append(
                        _Lp(
                            victim, mode, confined, victim in cut, backend, stealthy,
                            context.support_operator, bands.lower - x, bands.upper - x,
                            stealth_rows if stealthy else None, context.cap,
                        )
                    )
    return lps


def _one_shot_solver(context, victim, mode, confined=False):
    """The solver ``ChosenVictimAttack`` builds for one victim."""
    bands = build_chosen_victim_bands(context, (victim,), mode, confined=confined)
    return IncrementalLpSolver(
        None,
        context.baseline_estimate,
        context.support,
        context.num_paths,
        bands,
        cap=context.cap,
        sub_operator=context.support_operator,
    )


@pytest.fixture()
def probe_verdicts(monkeypatch):
    """The verdict of every feasibility-first run, in call order."""
    verdicts = []
    decide = PersistentLpSolver._decide_feasibility

    def recording_decide(self):
        outcome = decide(self)
        verdicts.append(outcome[0])
        return outcome

    monkeypatch.setattr(PersistentLpSolver, "_decide_feasibility", recording_decide)
    return verdicts


class TestFeasibilityFirst:
    """A one-shot LP whose bands cover every link decides feasibility on a
    zero-cost run first, and must still give exactly the answer a fresh
    model, configured as the engine's, gives."""

    def test_first_solve_matches_a_fresh_model(self, chosen_victim_lps, probe_verdicts):
        feasible_banded = 0
        for lp_ in chosen_victim_lps:
            probed = lp_.persistent().solve()
            optimal, status, values = lp_.fresh()
            assert (probed.optimal, probed.status) == (optimal, status), lp_[:6]
            if optimal:
                assert probed.values.tobytes() == values.tobytes(), lp_[:6]
            if lp_.confined and lp_.perfect_cut:
                assert optimal, lp_[:6]  # Theorem 1
            feasible_banded += lp_.banded and optimal
        assert feasible_banded >= 100
        assert probe_verdicts.count("feasible") == feasible_banded
        assert "infeasible" in probe_verdicts

    def test_borderline_victim_band_gets_the_same_verdict(self, chosen_victim_lps):
        """The victim must reach exactly (1 + delta) times the largest
        estimate shift the other bands leave it."""
        deltas = (0.0, 1e-10, -1e-10, 1e-8, -1e-8, 1e-6, -1e-6, 1e-3, -1e-3)
        compared = 0
        for lp_ in chosen_victim_lps:
            if not lp_.banded or lp_.backend != "dense" or lp_.stealthy:
                continue
            freed = lp_.lower.copy()
            freed[lp_.victim] = -math.inf  # the victim row is lower-bounded only
            reachable, _, values = lp_.fresh(lower=freed, cost=-lp_.sub[lp_.victim])
            reach = float(lp_.sub[lp_.victim] @ values) if reachable else 0.0
            if reach <= 0:
                continue
            for delta in deltas:
                lower = lp_.lower.copy()
                lower[lp_.victim] = reach * (1 + delta)
                _, status, _ = lp_.fresh(lower=lower)
                assert lp_.persistent(lower=lower).solve().status == status, (
                    lp_[:6], delta
                )
                compared += 1
        assert compared >= 500

    def test_probe_runs_only_on_a_first_override_free_banded_solve(
        self, fig1_context, probe_verdicts
    ):
        context = fig1_context
        abnormal = context.thresholds.upper + context.margin
        for mode, confined in (("exclusive", False), ("paper", True)):
            banded = _one_shot_solver(context, 0, mode, confined)
            banded.solve()
            assert len(probe_verdicts) == 1
            banded.solve()  # a second solve
            banded.solve({1: (abnormal, math.inf)})
            assert len(probe_verdicts) == 1
            probe_verdicts.clear()
        _one_shot_solver(context, 0, "exclusive").solve({1: (abnormal, math.inf)})
        _one_shot_solver(context, 0, "paper").solve()  # free rows
        _one_shot_solver(context, 0, "exclusive").damage_bound([0, 1])  # freed rows
        MaxDamageAttack(context, mode="exclusive").run()  # a warm scan
        ChosenVictimAttack(context, [0]).run()  # paper mode
        assert probe_verdicts == []
        ChosenVictimAttack(context, [0], mode="exclusive").run()
        assert len(probe_verdicts) == 1

    def test_override_solve_after_an_infeasible_probe_is_unaffected(
        self, fig1_scenario, small_isp_scenario, probe_verdicts
    ):
        sequences = 0
        for scenario, attackers in (
            (fig1_scenario, ("B", "C")),
            (small_isp_scenario, ("agg1", "agg3")),
        ):
            context = scenario.attack_context(list(attackers))
            abnormal = context.thresholds.upper + context.margin
            victims = [
                j for j in range(context.num_links) if j not in context.controlled_links
            ]
            for victim, other in itertools.product(victims, victims):
                probed = _one_shot_solver(context, victim, "exclusive")
                probe_verdicts.clear()
                if probed.solve().feasible or probe_verdicts != ["infeasible"]:
                    continue
                overrides = {victim: (-math.inf, math.inf)}
                if other != victim:
                    overrides[other] = (abnormal, math.inf)
                after = probed.solve(overrides)
                reference = _one_shot_solver(context, victim, "exclusive").solve(overrides)
                assert after.feasible == reference.feasible, (victim, other)
                if reference.feasible:
                    assert after.damage == pytest.approx(
                        reference.damage, rel=1e-9, abs=1e-9
                    ), (victim, other)
                    sequences += reference.damage > 0
        assert sequences >= 20

    def test_iterations_count_both_runs(self, tmp_path, fig1_context, monkeypatch):
        """A first solve whose feasibility run finds a feasible point runs
        again with its cost; the result and the event report both runs."""
        runs = []
        run = PersistentLpSolver._run

        def counting_run(self):
            status, info = run(self)
            runs.append(int(info.simplex_iteration_count))
            return status, info

        monkeypatch.setattr(PersistentLpSolver, "_run", counting_run)
        context = fig1_context
        x = context.baseline_estimate
        bands = build_chosen_victim_bands(context, (0,), "paper", confined=True)
        solver = PersistentLpSolver(
            context.support_operator, bands.lower - x, bands.upper - x,
            var_upper=context.cap,
        )
        path = tmp_path / "run.jsonl"
        with obs.enabled(path):
            result = solver.solve()
        (event,) = [
            r
            for r in map(json.loads, path.read_text().splitlines())
            if r.get("name") == "lp_warm_start"
        ]
        assert result.optimal and event["feasibility_probe"] == "feasible"
        assert len(runs) == 2 and min(runs) > 0
        assert result.iterations == event["iterations"] == sum(runs)

    def test_warm_start_event_names_the_deciding_solve(self, tmp_path, fig1_context):
        context = fig1_context
        x = context.baseline_estimate

        def events(name, bands, *overrides):
            solver = PersistentLpSolver(
                context.support_operator,
                bands.lower - x,
                bands.upper - x,
                var_upper=context.cap,
            )
            path = tmp_path / f"{name}.jsonl"
            with obs.enabled(path):
                for override in overrides:
                    solver.solve(override)
            records = [json.loads(line) for line in path.read_text().splitlines()]
            return [
                (r["feasibility_probe"], r["status"])
                for r in records
                if r.get("name") == "lp_warm_start"
            ]

        infeasible = build_chosen_victim_bands(context, (0,), "exclusive")
        infeasible.lower[0] = 1e9
        assert events("infeasible", infeasible, None, None) == [
            ("infeasible", "Infeasible"), ("none", "Infeasible")
        ]
        confined = build_chosen_victim_bands(context, (0,), "paper", confined=True)
        assert events("confined", confined, None) == [("feasible", "Optimal")]
        paper = build_chosen_victim_bands(context, (0,), "paper")
        assert events("paper", paper, None) == [("none", "Optimal")]


#: HiGHS' status for a run stopped by its simplex iteration limit.
_ITERATION_LIMIT = str(
    highs._Highs().modelStatusToString(highs.HighsModelStatus.kIterationLimit)
)


def _limit_iterations(monkeypatch):
    """From here on, every model the engine builds stops at its iteration
    limit, set to 0: a run that ends neither optimal nor infeasible."""
    build = lp_engine.row_wise_model

    def limited(*args):
        model = build(*args)
        model.setOptionValue("simplex_iteration_limit", 0)
        return model

    monkeypatch.setattr(lp_engine, "row_wise_model", limited)


class TestLpNumericalFailure:
    """A solve that ends neither optimal nor infeasible is reported as
    infeasible with HiGHS' own status: never as a solution, never as a
    proof of infeasibility, and never as a damage bound.

    Every LP here needs at least one simplex iteration (its optimum moves
    off the all-zero slack basis), so a zero iteration limit stops it."""

    def test_persistent_solver_stops_on_both_runs(
        self, fig1_context, monkeypatch, probe_verdicts
    ):
        context = fig1_context
        x = context.baseline_estimate
        bands = build_chosen_victim_bands(context, (0,), "exclusive")
        abnormal = context.thresholds.upper + context.margin
        override = {1: (abnormal - x[1], math.inf)}

        def solver():
            return PersistentLpSolver(
                context.support_operator, bands.lower - x, bands.upper - x,
                var_upper=context.cap,
            )

        assert solver().solve().iterations >= 1
        assert solver().solve(override).iterations >= 1
        probe_verdicts.clear()
        _limit_iterations(monkeypatch)
        limited = solver()
        first = limited.solve()  # fully banded: the feasibility run goes first
        # The feasibility run reads any status but Infeasible as "feasible",
        # so the optimizing run must stop on its own limit too.
        assert probe_verdicts == ["feasible"]
        override_solves = (limited.solve(override), solver().solve(override))
        for result in (first, *override_solves):
            assert (result.optimal, result.values, result.status) == (
                False, None, _ITERATION_LIMIT
            )
            assert result.iterations == 0

    def test_incremental_solver_is_infeasible_with_the_status(
        self, fig1_context, monkeypatch
    ):
        abnormal = fig1_context.thresholds.upper + fig1_context.margin
        _limit_iterations(monkeypatch)
        for mode in ("exclusive", "paper"):
            solver = _one_shot_solver(fig1_context, 0, mode)
            for overrides in (None, {1: (abnormal, math.inf)}):
                solution = solver.solve(overrides)
                assert not solution.feasible, (mode, overrides)
                assert solution.manipulation is None
                assert solution.status == _ITERATION_LIMIT, (mode, overrides)

    def test_chosen_victim_outcome_carries_the_status(self, fig1_context, monkeypatch):
        attacks = [
            ChosenVictimAttack(fig1_context, [0], mode=mode, confined=confined)
            for mode, confined in (("exclusive", False), ("paper", True), ("paper", False))
        ]
        assert all(attack.run().feasible for attack in attacks[1:])
        _limit_iterations(monkeypatch)
        for attack in attacks:
            outcome = attack.run()
            assert not outcome.feasible
            assert outcome.status == _ITERATION_LIMIT != "Infeasible"

    def test_damage_bound_is_no_bound(self, fig1_context, monkeypatch):
        def bound():
            return _one_shot_solver(fig1_context, 0, "exclusive").damage_bound([0, 1])

        assert 0 < bound() < math.inf
        _limit_iterations(monkeypatch)
        assert bound() == math.inf  # so a max-damage scan never stops early on it
