"""The shared linear program behind every scapegoating strategy.

All three strategies of Section III maximise damage ``||m||_1`` subject to
Constraint 1 and *band constraints on the estimate*.  Because tomography's
estimator is linear, the estimate under manipulation is affine in ``m``:

    x_hat(m) = R⁺ (R x* + m) = x* + Q m        (Q = R⁺, full column rank)

so "link j must look normal/abnormal/uncertain" becomes a pair of linear
inequalities in ``m``, and each strategy is one LP (proof of Theorem 1
writes the same thing from the ``Δx_hat`` side; :func:`theorem1_manipulation`
implements that constructive direction for perfect cuts, and the tests
use its witness as an oracle for the LP).

Every production solve runs on one engine:
:class:`IncrementalLpSolver` validates the problem and slices the
support-restricted operator once, then serves each candidate on a
:class:`~repro.attacks.lp_engine.PersistentLpSolver` — one HiGHS model
per solver whose candidate solves edit only the overridden links' row
bounds and reuse the previous simplex basis (warm start).  The strategies
(chosen-victim, max-damage, obfuscation, frame-and-blur) all solve
through it.

:func:`solve_manipulation_lp` is the cold reference: vectorised band-row
assembly plus one :func:`scipy.optimize.linprog` call.  It exists so
tests can check the warm path against an independent solve; no library
code calls it.
Both agree on feasibility, unboundedness and optimal damage (parity
tests hold damage to 1e-9 relative); the optimal vertex may differ when
optima are non-unique.

An unbounded LP (possible only with an infinite per-path cap) is reported
as feasible with ``unbounded=True`` and re-solved under a fixed large
finite cap (``1e7``) so callers still get a concrete vector (the warm
path builds its model with that cap from the start).  The reported
``damage`` is always the L1 norm of the *returned* vector —
unboundedness is signalled exclusively through the flag, never as an
infinite damage value, so downstream aggregation (max-damage scans,
reporting tables) stays finite.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

from repro.attacks.lp_engine import PersistentLpSolver, prune_capacities
from repro.exceptions import AttackError, ValidationError
from repro.obs import core as obs
from repro.utils.validation import check_finite_vector

__all__ = [
    "BandConstraints",
    "IncrementalLpSolver",
    "LpSolution",
    "PRESOLVE_STATUS_PREFIX",
    "solve_manipulation_lp",
    "theorem1_manipulation",
]

#: Per-variable cap substituted for ``cap=None``, so an unbounded LP
#: still returns a finite vector (pinned at this cap).
_UNBOUNDED_RESOLVE_CAP = 1e7

#: Status prefix marking solutions rejected by the Constraint-1 presolve
#: pruner without any LP being assembled or solved.
PRESOLVE_STATUS_PREFIX = "presolve:"


@dataclass
class BandConstraints:
    """Per-link bounds on the *estimated* metric vector.

    ``lower[j] <= x_hat[j] <= upper[j]``; entries default to unbounded.
    Strategy classes translate Definition 1 states into these bands
    (already including any strictness margin).
    """

    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def unbounded(cls, num_links: int) -> "BandConstraints":
        """No constraints on any link estimate."""
        return cls(
            lower=np.full(num_links, -np.inf),
            upper=np.full(num_links, np.inf),
        )

    def require_at_most(self, link_index: int, bound: float) -> None:
        """Tighten: estimate of ``link_index`` must be <= ``bound``."""
        self.upper[link_index] = min(self.upper[link_index], bound)

    def require_at_least(self, link_index: int, bound: float) -> None:
        """Tighten: estimate of ``link_index`` must be >= ``bound``."""
        self.lower[link_index] = max(self.lower[link_index], bound)

    def validate(self) -> None:
        """Raise when some band is empty (lower > upper)."""
        if self.lower.shape != self.upper.shape:
            raise ValidationError("band bound vectors must have equal shape")
        bad = np.nonzero(self.lower > self.upper)[0]
        if bad.size:
            j = int(bad[0])
            raise ValidationError(
                f"empty band for link {j}: [{self.lower[j]}, {self.upper[j]}]"
            )


@dataclass(frozen=True)
class LpSolution:
    """Outcome of one manipulation LP.

    ``manipulation`` is the full-length vector (zeros off support).
    ``damage`` is ``||m||_1`` (Definition 2) *of the returned vector* —
    always finite, and always equal to ``manipulation.sum()`` when a
    vector is returned.  ``feasible`` is the paper's success criterion;
    ``unbounded`` flags that the true optimum is infinite and the vector
    (and its damage) come from a re-solve under a large finite cap.
    Callers that want to treat unbounded optima specially must branch on
    the flag, never on ``damage``.
    """

    feasible: bool
    manipulation: np.ndarray | None
    damage: float
    status: str
    unbounded: bool = False


def _checked_support(support: Sequence[int], num_paths: int) -> list[int]:
    """Sorted, deduplicated support rows, range-checked against ``R``."""
    support_list = sorted(set(int(s) for s in support))
    for row in support_list:
        if not 0 <= row < num_paths:
            raise AttackError(f"support row {row} out of range [0, {num_paths})")
    return support_list


def _assemble_band_rows(
    sub_operator: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    x_true: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised inequality assembly for the estimate bands.

    Returns ``(a_ub, b_ub)`` with rows in the per-link interleaving
    (link 0 upper, link 0 lower, link 1 upper, ...).  Finite bounds are
    selected with masks — no Python loop over links.
    """
    up_idx = np.nonzero(np.isfinite(upper))[0]
    lo_idx = np.nonzero(np.isfinite(lower))[0]
    keys = np.concatenate([2 * up_idx, 2 * lo_idx + 1])
    order = np.argsort(keys, kind="stable")
    links = np.concatenate([up_idx, lo_idx])[order]
    signs = np.concatenate(
        [np.ones(up_idx.size), -np.ones(lo_idx.size)]
    )[order]
    a_ub = signs[:, None] * sub_operator[links]
    b_ub = np.concatenate(
        [upper[up_idx] - x_true[up_idx], x_true[lo_idx] - lower[lo_idx]]
    )[order]
    return a_ub, b_ub


def _assemble_consistency(
    consistency_matrix: np.ndarray | None,
    support_list: list[int],
    num_paths: int,
    *,
    columns: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Equality block ``C m = 0`` restricted to the supported columns.

    Only the supported columns are variables; off-support entries of ``m``
    are zero and drop out of ``C m = 0``.  Numerically trivial rows are
    discarded to help the solver.  ``columns`` supplies the pre-sliced
    ``C[:, support]`` block directly (|P| x k, support in sorted order) —
    the sparse backend produces it matrix-free, so the full |P| x |P|
    projector never needs to exist.
    """
    if columns is not None:
        sub = np.asarray(columns, dtype=float)
        if sub.shape != (num_paths, len(support_list)):
            raise AttackError(
                f"consistency columns must be ({num_paths} x {len(support_list)}), "
                f"got {sub.shape}"
            )
    elif consistency_matrix is None:
        return None, None
    else:
        cmat = np.asarray(consistency_matrix, dtype=float)
        if cmat.shape != (num_paths, num_paths):
            raise AttackError(
                f"consistency matrix must be ({num_paths} x {num_paths}), got {cmat.shape}"
            )
        sub = cmat[:, support_list]
    keep = np.linalg.norm(sub, axis=1) > 1e-12
    if not np.any(keep):
        return None, None
    return sub[keep], np.zeros(int(np.sum(keep)))


def _empty_support_solution(
    lower: np.ndarray, upper: np.ndarray, x_true: np.ndarray, num_paths: int
) -> LpSolution:
    """With an empty support the only candidate is ``m = 0``."""
    m0 = np.zeros(num_paths)
    ok = bool(np.all(x_true >= lower - 1e-9) and np.all(x_true <= upper + 1e-9))
    return LpSolution(
        feasible=ok,
        manipulation=m0 if ok else None,
        damage=0.0,
        status="empty support" + (" (baseline satisfies bands)" if ok else ""),
    )


def _pinned_at_cap(values: np.ndarray) -> bool:
    """True when any entry sits at the unbounded re-solve cap up to solver
    round-off (relative tolerance 1e-9)."""
    tolerance = 1e-9 * _UNBOUNDED_RESOLVE_CAP
    return bool(np.any(values >= _UNBOUNDED_RESOLVE_CAP - tolerance))


def _unbounded_solution(manipulation: np.ndarray, damage: float) -> LpSolution:
    """An infinite optimum, reported through its capped stand-in vector.

    The damage stays the L1 norm of the concrete (capped) vector handed
    back — an inf here would poison every downstream aggregate that sums
    or tabulates damages.  The flag carries the infinity.
    """
    if obs.is_enabled():
        obs.event(
            "lp_unbounded_resolve",
            resolve_cap=_UNBOUNDED_RESOLVE_CAP,
            capped_damage=damage,
        )
    return LpSolution(
        feasible=True,
        manipulation=manipulation,
        damage=damage,
        status="unbounded (re-solved with large cap)",
        unbounded=True,
    )


def _solve_assembled(
    support_list: list[int],
    num_paths: int,
    a_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
    a_eq: np.ndarray | None,
    b_eq: np.ndarray | None,
    cap: float | None,
) -> LpSolution:
    """One cold :func:`scipy.optimize.linprog` call on assembled constraints.

    ``cap=None`` solves under the large finite re-solve cap instead —
    HiGHS can misclassify feasible-but-unbounded instances of this LP as
    infeasible when variables are uncapped — and infers unboundedness
    from variables pinned at that cap.
    """
    var_cap = _UNBOUNDED_RESOLVE_CAP if cap is None else cap
    k = len(support_list)
    obs.counter("lp_solve")
    with obs.span("lp_solve"):
        result = linprog(
            c=-np.ones(k),
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=[(0.0, var_cap)] * k,
            method="highs",
        )
    if obs.is_enabled():
        obs.event(
            "lp_solve",
            success=bool(result.success),
            status=str(result.message),
            iterations=int(getattr(result, "nit", -1)),
            variables=k,
            rows_ub=0 if a_ub is None else int(a_ub.shape[0]),
            rows_eq=0 if a_eq is None else int(a_eq.shape[0]),
            cap=var_cap,
        )

    if not result.success:
        return LpSolution(
            feasible=False,
            manipulation=None,
            damage=0.0,
            status=result.message,
        )
    m = np.zeros(num_paths)
    m[support_list] = np.maximum(result.x, 0.0)  # clip solver round-off
    damage = float(m.sum())
    if cap is None and _pinned_at_cap(m):
        return _unbounded_solution(m, damage)
    return LpSolution(
        feasible=True,
        manipulation=m,
        damage=damage,
        status=result.message,
    )


def _resolve_sub_operator(
    estimator_operator: np.ndarray | None,
    sub_operator: np.ndarray | None,
    support_list: list[int],
    num_paths: int,
) -> np.ndarray:
    """The |L| x k support-restricted operator block, whichever way it came.

    ``sub_operator`` (columns in sorted-support order) wins when given —
    the sparse backend computes exactly those columns matrix-free and the
    full ``R⁺`` never exists.  Otherwise the dense operator is sliced.
    """
    if sub_operator is not None:
        sub = np.asarray(sub_operator, dtype=float)
        if sub.ndim != 2 or sub.shape[1] != len(support_list):
            raise AttackError(
                f"sub operator must be (num_links x {len(support_list)}), "
                f"got {sub.shape}"
            )
        return sub
    if estimator_operator is None:
        raise AttackError("need either estimator_operator or sub_operator")
    operator = np.asarray(estimator_operator, dtype=float)
    if operator.ndim != 2 or operator.shape[1] != num_paths:
        raise AttackError(
            f"estimator operator must be (num_links x {num_paths}), got {operator.shape}"
        )
    return operator[:, support_list]


def solve_manipulation_lp(
    estimator_operator: np.ndarray | None,
    true_metrics: np.ndarray,
    support: Sequence[int],
    num_paths: int,
    bands: BandConstraints,
    *,
    cap: float | None = 2000.0,
    consistency_matrix: np.ndarray | None = None,
    sub_operator: np.ndarray | None = None,
    consistency_columns: np.ndarray | None = None,
) -> LpSolution:
    """Maximise ``sum(m)`` subject to Constraint 1, ``m <= cap`` and bands.

    Parameters
    ----------
    estimator_operator:
        ``Q = R⁺`` (|L| x |P|) — the operator's public estimation map.
    true_metrics:
        The *baseline estimate* — what tomography reports with no attack
        (``Q R x*``; equal to the ground truth ``x*`` under full column
        rank).  The attacker observes its local links and, like the paper,
        is assumed to know routine performance well enough to plan;
        sensitivity to this assumption is explored in the ablation
        benches.
    support:
        Manipulable path rows (paths containing an attacker).
    bands:
        Estimate bands encoding the strategy's state constraints.
    cap:
        Per-path manipulation cap in metric units (paper: 2000 ms).
        ``None`` means unlimited: the LP is solved under the fixed
        ``1e7`` cap, and a solution pinned at it is flagged ``unbounded``.
    consistency_matrix:
        Optional *stealth* constraint ``C m = 0`` (|P| x |P|).  Passing the
        residual projector ``I - R R⁺`` restricts the attacker to
        manipulations lying in the column space of ``R`` — measurements
        that remain perfectly consistent with *some* link-metric vector,
        hence invisible to the eq. (23) detector.  Theorem 3: such a
        solution always exists under a perfect cut and (generically) not
        otherwise.
    sub_operator:
        Pre-sliced ``Q[:, support]`` (|L| x k, sorted support order).
        When given, ``estimator_operator`` may be None — sparse-backend
        callers hand the support columns over without ever materialising
        the full pseudo-inverse.
    consistency_columns:
        Pre-sliced stealth block ``C[:, support]`` (|P| x k); same idea
        for the residual projector.

    This one-shot entry point is the cold reference — one
    :func:`scipy.optimize.linprog` call per solve.  Tests compare the
    warm production path (:class:`IncrementalLpSolver`) against it;
    library code solves through :class:`IncrementalLpSolver`.
    """
    x_true = check_finite_vector(true_metrics, "true_metrics")
    bands.validate()
    if cap is not None and cap < 0:
        raise ValidationError(f"cap must be non-negative or None, got {cap}")

    support_list = _checked_support(support, num_paths)

    # Baseline estimate without manipulation is x* itself (honest system);
    # bands must at least admit m = 0 on unconstrained links, but
    # constrained links may *require* manipulation, so feasibility is the
    # LP's job.  With an empty support the only candidate is m = 0.
    if not support_list:
        return _empty_support_solution(bands.lower, bands.upper, x_true, num_paths)

    with obs.span("lp_assembly"):
        sub = _resolve_sub_operator(
            estimator_operator, sub_operator, support_list, num_paths
        )
        if sub.shape[0] != x_true.shape[0]:
            raise AttackError(
                f"operator rows ({sub.shape[0]}) must match true_metrics "
                f"length ({x_true.shape[0]})"
            )
        a_ub, b_ub = _assemble_band_rows(sub, bands.lower, bands.upper, x_true)
        if a_ub.shape[0] == 0:
            a_ub, b_ub = None, None
        a_eq, b_eq = _assemble_consistency(
            consistency_matrix, support_list, num_paths, columns=consistency_columns
        )

    return _solve_assembled(support_list, num_paths, a_ub, b_ub, a_eq, b_eq, cap)


class IncrementalLpSolver:
    """The production manipulation-LP solver: one warm HiGHS model per scan.

    Candidate scans (max-damage, per-victim damage maps, the obfuscation
    greedy growth) solve thousands of LPs that differ only in one or two
    links' bands; one-off strategies (chosen-victim, frame-and-blur)
    solve a single LP the same way.  This solver validates the problem,
    slices the support-restricted operator and the consistency block
    once, and serves every :meth:`solve` on one
    :class:`~repro.attacks.lp_engine.PersistentLpSolver` (built at the
    first solve): a candidate edits only its overridden links' row bounds
    and re-solves from the previous simplex basis.  When the base bands
    cover every link, the first solve without overrides decides
    feasibility before it optimizes.  Optimal damage agrees with the
    cold reference :func:`solve_manipulation_lp` to solver tolerance;
    the optimal vertex may differ where optima are non-unique.

    The Constraint-1 presolve pruner rejects overrides whose required
    estimate shift provably exceeds what any Constraint-1 manipulation
    can deliver (:meth:`presolve_prune_reason`) before the model is
    touched; pruned solves return an infeasible solution whose status
    starts with :data:`PRESOLVE_STATUS_PREFIX` and are counted in
    :attr:`presolve_pruned` (and as ``lp_presolve_prune`` obs events).

    :meth:`damage_bound` answers the scan-wide upper bound a max-damage
    scan stops at: the optimum with a set of rows freed, solved on a
    throwaway model so the warm model's basis never sees it, and
    memoised per freed set so scans sharing this solver pay for it once.

    Parameters mirror :func:`solve_manipulation_lp`; ``base_bands`` is the
    constraint state shared by every candidate.
    """

    def __init__(
        self,
        estimator_operator: np.ndarray | None,
        true_metrics: np.ndarray,
        support: Sequence[int],
        num_paths: int,
        base_bands: BandConstraints,
        *,
        cap: float | None = 2000.0,
        consistency_matrix: np.ndarray | None = None,
        sub_operator: np.ndarray | None = None,
        consistency_columns: np.ndarray | None = None,
    ) -> None:
        self.num_paths = int(num_paths)
        self.cap = cap
        if cap is not None and cap < 0:
            raise ValidationError(f"cap must be non-negative or None, got {cap}")
        #: The finite per-variable cap of every model this solver builds.
        self._var_cap = _UNBOUNDED_RESOLVE_CAP if cap is None else cap
        self.presolve_pruned = 0
        self._x_true = check_finite_vector(true_metrics, "true_metrics")
        self.num_links = int(self._x_true.shape[0])
        base_bands.validate()
        self._base_lower = np.array(base_bands.lower, dtype=float)
        self._base_upper = np.array(base_bands.upper, dtype=float)
        self._support = _checked_support(support, num_paths)
        with obs.span("lp_assembly"):
            self._sub_operator = _resolve_sub_operator(
                estimator_operator, sub_operator, self._support, num_paths
            )
            if self._sub_operator.shape[0] != self.num_links:
                raise AttackError(
                    f"operator rows ({self._sub_operator.shape[0]}) must match "
                    f"true_metrics length ({self.num_links})"
                )
            self._a_eq, _ = _assemble_consistency(
                consistency_matrix,
                self._support,
                num_paths,
                columns=consistency_columns,
            )
        self._persistent: PersistentLpSolver | None = None
        self._damage_bounds: dict[frozenset[int], float] = {}

    @cached_property
    def _capacities(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`~repro.attacks.lp_engine.prune_capacities`, computed at
        the first override check (a one-shot solve has none)."""
        return prune_capacities(self._sub_operator)

    def presolve_prune_reason(
        self, overrides: Mapping[int, tuple[float, float]]
    ) -> str | None:
        """Constraint-1 infeasibility certificate for an override set.

        Any feasible manipulation satisfies ``0 <= m <= cap``, so link
        ``j``'s estimate shift is bracketed by the cap times the row-wise
        positive/negative coefficient mass of ``Q[:, support]``.  An
        override demanding more shift than the bracket allows is
        infeasible *regardless of every other constraint* — the certifier
        is sound (it never rejects a feasible override, property-tested),
        deliberately incomplete, and costs two comparisons per overridden
        link.  The comparison margin (``1e-6`` absolute) sits well above
        the solver's own feasibility tolerance so borderline candidates
        are always left to the LP.
        """
        cap = self.cap
        pos_capacity, neg_capacity = self._capacities
        for j, (lower, upper) in overrides.items():
            x_true = float(self._x_true[j])
            # A finite lower bound may need a raise, a finite upper a drop.
            for bound, need, capacities, word in (
                (lower, float(lower) - x_true, pos_capacity, "raise"),
                (upper, x_true - float(upper), neg_capacity, "drop"),
            ):
                if not np.isfinite(bound) or need <= 0:
                    continue
                capacity = float(capacities[j])
                if capacity <= 0.0:
                    available = 0.0
                elif cap is None:
                    available = math.inf
                else:
                    available = float(cap) * capacity
                if need > available * (1 + 1e-9) + 1e-6:
                    return (
                        f"{PRESOLVE_STATUS_PREFIX} link {j} needs an estimate "
                        f"{word} of {need:.6g} but the Constraint-1 support "
                        f"can deliver at most {available:.6g}"
                    )
        return None

    def _warm_solver(self) -> PersistentLpSolver:
        """The persistent HiGHS model (built once per solver instance)."""
        if self._persistent is None:
            self._persistent = PersistentLpSolver(
                self._sub_operator,
                self._base_lower - self._x_true,
                self._base_upper - self._x_true,
                eq_rows=self._a_eq,
                var_upper=self._var_cap,
            )
        return self._persistent

    def solve(
        self, overrides: Mapping[int, tuple[float, float]] | None = None
    ) -> LpSolution:
        """Solve with each link in ``overrides`` rebanded to ``(lo, up)``.

        An override *replaces* the link's base band entirely (it is not
        intersected with it), matching a from-scratch band construction
        where the overridden links take their candidate-specific bounds.
        """
        overrides = dict(overrides or {})
        for j, (lower, upper) in overrides.items():
            if not 0 <= j < self.num_links:
                raise AttackError(f"override link {j} out of range [0, {self.num_links})")
            if lower > upper:
                raise ValidationError(
                    f"empty band for link {j}: [{lower}, {upper}]"
                )

        if not self._support:
            lower = self._base_lower.copy()
            upper = self._base_upper.copy()
            for j, (lo, up) in overrides.items():
                lower[j], upper[j] = lo, up
            return _empty_support_solution(lower, upper, self._x_true, self.num_paths)

        if overrides:
            reason = self.presolve_prune_reason(overrides)
            if reason is not None:
                self.presolve_pruned += 1
                obs.counter("lp_presolve_prune")
                if obs.is_enabled():
                    obs.event(
                        "lp_presolve_prune",
                        links=sorted(int(j) for j in overrides),
                        reason=reason,
                        pruned_total=self.presolve_pruned,
                    )
                return LpSolution(
                    feasible=False, manipulation=None, damage=0.0, status=reason
                )

        raw = self._warm_solver().solve(
            {
                j: (lower - self._x_true[j], upper - self._x_true[j])
                for j, (lower, upper) in overrides.items()
            }
        )
        if not raw.optimal or raw.values is None:
            return LpSolution(
                feasible=False, manipulation=None, damage=0.0, status=raw.status
            )
        m = np.zeros(self.num_paths)
        m[self._support] = np.maximum(raw.values, 0.0)  # clip solver round-off
        damage = float(m.sum())
        if self.cap is None and _pinned_at_cap(m[self._support]):
            return _unbounded_solution(m, damage)
        return LpSolution(
            feasible=True, manipulation=m, damage=damage, status=raw.status
        )

    def damage_bound(self, free_links: Iterable[int]) -> float:
        """Optimal damage with every link in ``free_links`` left unbanded.

        An override replaces a link's band, and any band is a subset of
        ``(-inf, inf)``, so this optimum bounds the damage of every
        :meth:`solve` whose overrides touch only these links.  The LP
        runs on a throwaway model built from the already-sliced arrays,
        so the warm model and its basis are untouched; only the float is
        kept, memoised per freed set.  ``math.inf`` when that LP is not
        optimal (no bound).
        """
        key = frozenset(int(j) for j in free_links)
        bound = self._damage_bounds.get(key)
        if bound is not None:
            return bound
        for j in key:
            if not 0 <= j < self.num_links:
                raise AttackError(f"free link {j} out of range [0, {self.num_links})")
        if not self._support:
            bound = 0.0  # every solve returns m = 0
        else:
            rows = sorted(key)
            lower = self._base_lower.copy()
            upper = self._base_upper.copy()
            lower[rows], upper[rows] = -math.inf, math.inf
            raw = PersistentLpSolver(
                self._sub_operator,
                lower - self._x_true,
                upper - self._x_true,
                eq_rows=self._a_eq,
                var_upper=self._var_cap,
            ).solve()
            bound = (
                float(np.maximum(raw.values, 0.0).sum())
                if raw.optimal and raw.values is not None
                else math.inf
            )
        self._damage_bounds[key] = bound
        return bound

    def solve_many(
        self, overrides_iter: Iterable[Mapping[int, tuple[float, float]]]
    ) -> Iterator[LpSolution]:
        """Lazily solve one LP per override mapping, sharing all warm state.

        Candidate scans consume this instead of calling :meth:`solve` in
        a loop: the presolve pruner's capacities and the warm model's basis
        carry across iterations.  The generator is lazy, so
        ``stop_at_first_feasible`` searches stop paying the moment they
        stop consuming.
        """
        for overrides in overrides_iter:
            yield self.solve(overrides)


def theorem1_manipulation(
    routing_matrix: np.ndarray,
    delta_estimate: np.ndarray,
) -> np.ndarray:
    """The constructive manipulation of Theorem 1: ``m* = R Δx_hat*``.

    Given a target estimate shift ``Δx_hat* = x_hat* - x*`` supported on
    ``L_m ∪ L_s``, returns the manipulation vector that forges it exactly.
    Under a perfect cut the result automatically satisfies Constraint 1
    (zero on attacker-free paths) — the property test for Theorem 1
    asserts precisely this.  ``Δx_hat*`` must be non-negative where the
    corresponding rows of ``R`` touch it, or the resulting ``m`` may go
    negative; callers keep Δ >= 0 (attacks only inflate estimates).

    The forged estimate is exactly ``x* + Δx_hat*`` when ``R`` has full
    column rank (identifiability), because then ``R⁺ R = I``.  ``m*`` lies
    in the column space of ``R``, so its measurement residual is zero and
    the detector cannot see it (Theorem 3).
    """
    matrix = np.asarray(routing_matrix, dtype=float)
    delta = check_finite_vector(delta_estimate, "delta_estimate", length=matrix.shape[1])
    return matrix @ delta
