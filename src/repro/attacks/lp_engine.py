"""Persistent warm-started HiGHS model: the one solver of the manipulation LP.

A max-damage scan or an obfuscation growth solves one LP per candidate
victim set, and consecutive candidates differ by a *single link's band*.
Rebuilding and cold-solving each one would pay a model build, scaling and
a cold simplex start per candidate, so every production manipulation LP
is solved on one HiGHS model kept alive across the scan:

- :class:`PersistentLpSolver` builds the model once — one *two-sided* row
  per link (``q_j·m ∈ [lower_j - x_j, upper_j - x_j]``, infinities for
  absent bounds), the stealth equality block pinned to ``[0, 0]`` — and
  then serves each candidate by editing only the overridden links' row
  bounds.  The simplex basis from the previous candidate is reused, so a
  typical re-solve takes a handful of iterations instead of a cold start.
  The constraint matrix is the dense band block with the equality block
  stacked under it; its nonzeros go to HiGHS once, as row-wise CSR.
- :func:`prune_capacities` is the arithmetic of the Constraint-1
  presolve pruner: the row-wise positive/negative coefficient mass of the
  support-restricted estimator bounds what any feasible manipulation can
  do to a link's estimate, so provably hopeless candidates are rejected
  with two comparisons before any model is touched.

The model is built by :func:`repro.utils.highs.row_wise_model` on the
HiGHS API scipy vendors, in one call of its array ``passModel``
overload, with no bindings probe and no fallback, and runs with HiGHS
presolve off (docs/THEORY.md, "HiGHS presolve and the optimal vertex").

The module deliberately knows nothing about :class:`~repro.attacks.lp`
solution types: it consumes arrays and returns a raw
:class:`PersistentSolveResult`; the LP layer owns the semantics
(unbounded re-solve caps, damage-is-L1 reporting, support embedding).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from repro.exceptions import ValidationError
from repro.obs import core as obs
from repro.utils.highs import highs, row_wise_model

__all__ = [
    "PersistentLpSolver",
    "PersistentSolveResult",
    "prune_capacities",
]

#: HiGHS' infinity, used for open row bounds.
_INF = float(highs.kHighsInf)

#: A feasibility run's ``Infeasible`` is kept only when its end point misses
#: a constraint by more than this (metric units); closer calls are left to
#: the optimizing solve (docs/THEORY.md, "Feasibility first").
_PROBE_MARGIN = 1e-3


def prune_capacities(sub_operator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-link estimate-shift capacities of a support-restricted operator.

    For ``Q_s = Q[:, support]`` and any Constraint-1 manipulation
    ``0 <= m <= cap``, the estimate shift of link ``j`` is bracketed by::

        -cap * neg[j] <= (Q_s m)[j] <= cap * pos[j]

    where ``pos``/``neg`` are the row-wise sums of the positive/negative
    parts of ``Q_s``.  A band override demanding more shift than the
    bracket allows is infeasible regardless of every other constraint —
    the presolve pruner rejects it without assembling anything.
    """
    sub = np.asarray(sub_operator, dtype=float)
    return (
        np.clip(sub, 0.0, None).sum(axis=1),
        np.clip(-sub, 0.0, None).sum(axis=1),
    )


@dataclass(frozen=True)
class PersistentSolveResult:
    """Raw outcome of one warm solve (semantics belong to the LP layer).

    ``values`` is the support-variable vector (length k) when optimal,
    else None.  ``iterations`` counts simplex iterations of *this* solve,
    the feasibility run's included — the warm-start win is visible as
    tiny values after the first call.
    """

    optimal: bool
    values: np.ndarray | None
    status: str
    iterations: int
    rows_changed: int


class PersistentLpSolver:
    """One mutable HiGHS model reused across a candidate-victim scan.

    Parameters
    ----------
    sub_operator:
        ``Q[:, support]`` (|L| x k) — each link contributes one two-sided
        model row.
    row_lower, row_upper:
        Shifted base band bounds per link (``lower_j - x_j`` /
        ``upper_j - x_j``; ``±inf`` where the band is open).
    eq_rows:
        Optional stealth block ``C[:, support]`` (r x k, dense or scipy
        sparse) appended as equality rows ``= 0`` (pass the rows already
        filtered the way the cold reference filters them, so both see
        the same problem).
    var_upper:
        Finite per-variable cap (the caller substitutes its unbounded
        re-solve cap when the attack cap is None).

    Each :meth:`solve` call edits only the overridden links' row bounds,
    runs HiGHS (which reuses the previous basis), restores the base
    bounds, and returns a :class:`PersistentSolveResult`.  The model is
    never rebuilt.

    When every link row is banded (finite on at least one side), a
    one-shot LP is mostly a feasibility question, so the first solve
    without overrides runs once with zero cost.  Its ``Infeasible``
    (clear of :data:`_PROBE_MARGIN`) is returned as it stands; any other
    verdict clears the solver state and runs the ordinary solve, as on a
    fresh model.
    """

    def __init__(
        self,
        sub_operator: np.ndarray,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        *,
        eq_rows: np.ndarray | None = None,
        var_upper: float,
    ) -> None:
        sub = np.asarray(sub_operator, dtype=float)
        if sub.ndim != 2:
            raise ValidationError(
                f"sub_operator must be 2-D (links x support), got ndim={sub.ndim}"
            )
        self.num_links, self.num_vars = (int(d) for d in sub.shape)
        if not np.isfinite(var_upper) or var_upper < 0:
            raise ValidationError(
                f"var_upper must be finite and non-negative, got {var_upper}"
            )
        lower = np.asarray(row_lower, dtype=float)
        upper = np.asarray(row_upper, dtype=float)
        if lower.shape != (self.num_links,) or upper.shape != (self.num_links,):
            raise ValidationError(
                "row bounds must have one entry per link "
                f"({self.num_links}), got {lower.shape} / {upper.shape}"
            )
        # Base bounds never change after construction.
        self._banded = bool(np.all(np.isfinite(lower) | np.isfinite(upper)))
        self._base_lower = np.where(np.isfinite(lower), lower, -_INF)
        self._base_upper = np.where(np.isfinite(upper), upper, _INF)

        block = sub
        if eq_rows is not None:
            eq = eq_rows.toarray() if scipy.sparse.issparse(eq_rows) else np.asarray(eq_rows)
            if eq.ndim != 2 or eq.shape[1] != self.num_vars:
                raise ValidationError(
                    f"eq_rows must be (r x {self.num_vars}), got {eq.shape}"
                )
            block = np.vstack([sub, eq])
        num_eq = block.shape[0] - self.num_links
        rows, cols = np.nonzero(block)
        self._model = row_wise_model(
            -np.ones(self.num_vars),  # maximise sum(m)
            np.full(self.num_vars, float(var_upper)),
            np.concatenate([self._base_lower, np.zeros(num_eq)]),
            np.concatenate([self._base_upper, np.zeros(num_eq)]),
            np.searchsorted(rows, np.arange(block.shape[0] + 1)), cols, block[rows, cols],
        )
        self._model.setOptionValue("presolve", "off")
        obs.counter("lp_model_build")
        self.solves = 0

    def _run(self) -> tuple[highs.HighsModelStatus, highs.HighsInfo]:
        """Run HiGHS; status and info, read before a model edit resets them."""
        self._model.run()
        return self._model.getModelStatus(), self._model.getInfo()

    def _decide_feasibility(self) -> tuple[str, highs.HighsModelStatus, highs.HighsInfo]:
        """One run with zero cost, then the cost put back.

        With no objective the simplex stops at the first feasible basis or
        proves infeasibility.  Unless the verdict is ``"infeasible"``, the
        solver state is cleared for the ordinary solve that follows.
        """
        columns = np.arange(self.num_vars, dtype=np.int32)
        self._model.changeColsCost(self.num_vars, columns, np.zeros(self.num_vars))
        try:
            status, info = self._run()
        finally:
            self._model.changeColsCost(self.num_vars, columns, -np.ones(self.num_vars))
        if status != highs.HighsModelStatus.kInfeasible:
            verdict = "feasible"
        elif info.max_primal_infeasibility <= _PROBE_MARGIN:
            verdict = "borderline"
        else:
            return "infeasible", status, info
        self._model.clearSolver()
        return verdict, status, info

    def solve(
        self, row_overrides: Mapping[int, tuple[float, float]] | None = None
    ) -> PersistentSolveResult:
        """Warm solve with the given links' row bounds replaced.

        ``row_overrides`` maps link index to *shifted* bounds
        ``(lower_j - x_j, upper_j - x_j)`` — the same replace-not-
        intersect semantics as
        :meth:`repro.attacks.lp.IncrementalLpSolver.solve`.  Base bounds
        are restored before returning, so solves are order-independent
        (up to the reused basis, which affects speed, never the optimum).
        """
        overrides = dict(row_overrides or {})
        for j, (lower, upper) in overrides.items():
            if not 0 <= int(j) < self.num_links:
                raise ValidationError(
                    f"override row {j} out of range [0, {self.num_links})"
                )
            self._model.changeRowBounds(
                int(j),
                float(lower) if np.isfinite(lower) else -_INF,
                float(upper) if np.isfinite(upper) else _INF,
            )
        probe = "none"
        iterations = 0
        obs.counter("lp_solve")
        try:
            with obs.span("lp_solve"):
                if self._banded and self.solves == 0 and not overrides:
                    probe, status, info = self._decide_feasibility()
                    iterations = int(info.simplex_iteration_count)
                if probe != "infeasible":
                    status, info = self._run()
                    iterations += int(info.simplex_iteration_count)
                optimal = status == highs.HighsModelStatus.kOptimal
                values = (
                    np.array(self._model.getSolution().col_value, dtype=float)
                    if optimal
                    else None
                )
        finally:
            for j in overrides:
                self._model.changeRowBounds(
                    int(j),
                    float(self._base_lower[j]),
                    float(self._base_upper[j]),
                )
        self.solves += 1
        result = PersistentSolveResult(
            optimal=optimal,
            values=values,
            status=str(self._model.modelStatusToString(status)),
            iterations=iterations,
            rows_changed=len(overrides),
        )
        if obs.is_enabled():
            obs.event(
                "lp_warm_start",
                optimal=bool(optimal),
                status=result.status,
                iterations=iterations,
                rows_changed=result.rows_changed,
                solves=self.solves,
                feasibility_probe=probe,
            )
        return result
