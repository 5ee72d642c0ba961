"""Persistent warm-started HiGHS model: the one solver of the manipulation LP.

A max-damage scan or an obfuscation growth solves one LP per candidate
victim set, and consecutive candidates differ by a *single link's band*.
Rebuilding and cold-solving each one would pay presolve, scaling and a
cold simplex start per candidate, so every production manipulation LP is
solved on one HiGHS model kept alive across the scan:

- :class:`PersistentLpSolver` builds the model once — one *two-sided* row
  per link (``q_j·m ∈ [lower_j - x_j, upper_j - x_j]``, infinities for
  absent bounds), the stealth equality block pinned to ``[0, 0]`` — and
  then serves each candidate by editing only the overridden links' row
  bounds.  The simplex basis from the previous candidate is reused, so a
  typical re-solve takes a handful of iterations instead of a cold start.
  The constraint matrix goes to HiGHS in row-wise CSR form whatever its
  density.
- :func:`prune_capacities` is the Constraint-1 presolve arithmetic: the
  row-wise positive/negative coefficient mass of the support-restricted
  estimator bounds what any feasible manipulation can do to a link's
  estimate, so provably hopeless candidates are rejected with two
  comparisons before any model is touched.

The model talks to the HiGHS pybind11 API that scipy (>= 1.15, the
package floor) vendors for its own ``linprog`` backend; it is bound here
directly, with no probe and no fallback.

The module deliberately knows nothing about :class:`~repro.attacks.lp`
solution types: it consumes arrays and returns a raw
:class:`PersistentSolveResult`; the LP layer owns the semantics
(unbounded re-solve caps, damage-is-L1 reporting, support embedding).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

import numpy as np
import scipy.sparse
from scipy.optimize._highspy import _core as highs  # noqa: PLC2701

from repro.exceptions import ValidationError
from repro.obs import core as obs

__all__ = [
    "PersistentLpSolver",
    "PersistentSolveResult",
    "prune_capacities",
]

#: HiGHS' infinity, used for open row bounds.
_INF = float(highs.kHighsInf)


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
    else None.  ``iterations`` counts simplex iterations of *this* solve
    — the warm-start win is visible as tiny values after the first call.
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
    never rebuilt and never re-presolved from scratch.
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
        self._base_lower, self._base_upper = self._row_bounds(row_lower, row_upper)

        blocks = [scipy.sparse.csr_matrix(sub)]
        num_eq = 0
        if eq_rows is not None:
            eq = scipy.sparse.csr_matrix(eq_rows, dtype=float)
            if eq.shape[1] != self.num_vars:
                raise ValidationError(
                    f"eq_rows must be (r x {self.num_vars}), got {eq.shape}"
                )
            num_eq = eq.shape[0]
            blocks.append(eq)
        matrix = scipy.sparse.vstack(blocks, format="csr") if num_eq else blocks[0]

        lp = highs.HighsLp()
        lp.num_col_ = self.num_vars
        lp.num_row_ = self.num_links + num_eq
        lp.col_cost_ = -np.ones(self.num_vars)  # maximise sum(m)
        lp.col_lower_ = np.zeros(self.num_vars)
        lp.col_upper_ = np.full(self.num_vars, float(var_upper))
        lp.row_lower_ = np.concatenate([self._base_lower, np.zeros(num_eq)])
        lp.row_upper_ = np.concatenate([self._base_upper, np.zeros(num_eq)])
        lp.a_matrix_.format_ = highs.MatrixFormat.kRowwise
        lp.a_matrix_.start_ = matrix.indptr.astype(np.int64)
        lp.a_matrix_.index_ = matrix.indices.astype(np.int64)
        lp.a_matrix_.value_ = matrix.data.astype(float)

        self._model = highs._Highs()
        self._model.setOptionValue("output_flag", False)
        self._model.setOptionValue("threads", 1)
        self._model.passModel(lp)
        obs.counter("lp_model_build")
        self.solves = 0

    def _row_bounds(
        self, row_lower: np.ndarray, row_upper: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-link bounds in HiGHS' convention (``±kHighsInf`` when open)."""
        lower = np.asarray(row_lower, dtype=float)
        upper = np.asarray(row_upper, dtype=float)
        if lower.shape != (self.num_links,) or upper.shape != (self.num_links,):
            raise ValidationError(
                "row bounds must have one entry per link "
                f"({self.num_links}), got {lower.shape} / {upper.shape}"
            )
        return (
            np.where(np.isfinite(lower), lower, -_INF),
            np.where(np.isfinite(upper), upper, _INF),
        )

    def update_base_bounds(self, row_lower: np.ndarray, row_upper: np.ndarray) -> int:
        """Rebase the per-link band rows in place; returns rows changed.

        A churn epoch that only moves the baseline estimate (and hence
        the shifted band bounds) does not change the model's structure:
        the same variables, the same coefficient matrix, the same
        equality block.  Editing just the changed band rows via
        ``changeRowBounds`` keeps the model — and its simplex basis —
        alive, instead of paying a full rebuild.  Bounds follow the
        constructor's convention (``±inf`` where the band is open).
        """
        new_lower, new_upper = self._row_bounds(row_lower, row_upper)
        changed = np.flatnonzero(
            (new_lower != self._base_lower) | (new_upper != self._base_upper)
        )
        for j in changed:
            self._model.changeRowBounds(
                int(j), float(new_lower[j]), float(new_upper[j])
            )
        self._base_lower = new_lower
        self._base_upper = new_upper
        return int(changed.size)

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
        obs.counter("lp_solve")
        try:
            with obs.span("lp_solve"):
                self._model.run()
                status = self._model.getModelStatus()
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
        iterations = int(self._model.getInfo().simplex_iteration_count)
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
            )
        return result
