"""Pluggable linear-algebra backends for :class:`LinearSystem`.

The measurement matrix ``R`` of eq. (1) is an extremely sparse 0/1
path-link incidence matrix, yet the original kernel materialised dense
operators (``R⁺``, the projectors) from one dense SVD.  That is the right
call at Fig.-1 scale and caps out quickly on ISP-scale topologies.  This
module supplies two interchangeable numerical cores:

- :class:`DenseBackend` — the historical dense path: one
  :func:`repro.utils.linalg.compact_svd`, every derived operator assembled
  from the shared factors.  Bit-identical to the pre-backend kernel.
- :class:`SparseBackend` — stores ``R`` as ``scipy.sparse.csr_matrix`` and
  never materialises ``R⁺``.  Estimates are solved matrix-free: a
  Cholesky factorisation of the *smaller-side* Gram matrix
  (``R^T R`` when tall, ``R R^T`` when wide) with iterative refinement
  when the small side has full rank, and LSMR (min-norm least squares)
  otherwise.  Residuals are two sparse matvecs (``R x_hat - y``) instead
  of a dense ``(I - R R⁺)`` projector.  Rank queries use the Gram
  spectrum with a certified decision rule; spectra too ambiguous to
  certify fall back to the dense factors, so rank decisions never
  silently disagree with the library-wide cutoff convention.

Each backend is built from ``R`` in the form it computes with (a dense
array, or CSR) and the rank cutoff, and holds no reference back to its
:class:`~repro.tomography.linear_system.LinearSystem`, so a dropped system
and its factors are freed by reference counting.

Only the sparse backend evolves incrementally under path churn
(:meth:`SparseBackend.seed_evolution` patches its Gram Cholesky factor
with the kernels of :mod:`repro.utils.updates`, reading rows from the
parent's and the evolved system's CSR); a dense system produced by
:meth:`LinearSystem.evolve` runs one cold SVD on first use.

Backend choice is resolved by :func:`resolve_backend_name`: an explicit
``dense``/``sparse`` argument wins; otherwise the auto heuristic picks
sparse only when the matrix is large (``m * n >= 65536``) and sparse
(density <= 0.25) — exactly the regime where the dense SVD dominates
end-to-end sweep time.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import lsmr

from repro.exceptions import ValidationError
from repro.obs import core as obs
from repro.utils.linalg import DEFAULT_RANK_TOL, compact_svd, pinv_from_svd
from repro.utils.updates import (
    cholesky_append,
    cholesky_delete,
    cholesky_downdate,
    cholesky_replace,
    cholesky_update,
)

__all__ = [
    "DenseBackend",
    "SparseBackend",
    "resolve_backend_name",
    "AUTO_SIZE_THRESHOLD",
    "AUTO_DENSITY_THRESHOLD",
]

#: ``m * n`` at or above which the auto heuristic considers going sparse.
AUTO_SIZE_THRESHOLD = 65536

#: Density at or below which the auto heuristic considers going sparse.
AUTO_DENSITY_THRESHOLD = 0.25

_BACKEND_NAMES = ("dense", "sparse", "auto")

#: LSMR stopping tolerances — far below the library parity tolerance so
#: iterative estimates agree with the dense pseudo-inverse to <= 1e-8.
_LSMR_TOL = 1e-13

#: Iterative-refinement passes after a Gram or LSMR solve.  Normal
#: equations square the condition number; one or two refinement steps
#: recover the accuracy of a backward-stable direct solve.
_REFINE_STEPS = 2

#: Relative residual floor below which further refinement is pure
#: roundoff churn and the loop exits early.
_REFINE_ATOL = 64.0 * np.finfo(float).eps


def resolve_backend_name(
    requested: str | None,
    *,
    shape: tuple[int, int],
    density: float,
    sparse_input: bool = False,
) -> str:
    """Resolve ``dense``/``sparse`` from the request and the heuristic.

    An explicit ``dense``/``sparse`` ``requested`` wins; ``None`` and
    ``"auto"`` run the auto heuristic (sparse iff the matrix is both
    large and sparse, or the caller handed us an already-sparse matrix).
    """
    choice = "auto" if requested is None else requested
    if choice not in _BACKEND_NAMES:
        raise ValidationError(
            f"unknown backend {choice!r}; choose from {_BACKEND_NAMES}"
        )
    if choice != "auto":
        return choice
    if sparse_input:
        return "sparse"
    m, n = shape
    if m * n >= AUTO_SIZE_THRESHOLD and density <= AUTO_DENSITY_THRESHOLD:
        return "sparse"
    return "dense"


class DenseBackend:
    """The historical dense kernel: one SVD, dense derived operators.

    ``matrix`` is the dense ``R`` (|P| x |L|) of the
    :class:`~repro.tomography.linear_system.LinearSystem` this backend
    serves.  The backend holds no reference back to that system, so a
    dropped system and its factors are freed by reference counting, not
    left for the cycle collector.  Every quantity here is
    assembled from the one shared :func:`compact_svd` factorisation,
    exactly as before the backend split — existing results are
    bit-identical.  It has no incremental path: an evolved dense system
    runs its own SVD, which gives the rank exactly.
    """

    name = "dense"

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """``(u, s, vt, rank)`` — the one factorisation everything shares."""
        return compact_svd(self.matrix)

    @property
    def rank(self) -> int:
        return self.factors[3]

    @property
    def singular_values(self) -> np.ndarray:
        return self.factors[1]

    @cached_property
    def estimator(self) -> np.ndarray:
        """``R⁺`` (|L| x |P|), assembled from the shared factors."""
        return pinv_from_svd(*self.factors)

    @cached_property
    def column_space_projector(self) -> np.ndarray:
        u, _, _, rank = self.factors
        return u[:, :rank] @ u[:, :rank].T

    @cached_property
    def residual_projector(self) -> np.ndarray:
        return np.eye(self.matrix.shape[0]) - self.column_space_projector

    @cached_property
    def nullspace(self) -> np.ndarray:
        if self.matrix.size == 0:
            return np.eye(self.matrix.shape[1])
        _, _, vt, rank = self.factors
        return vt[rank:].T.copy()

    # Every operation takes a vector or a column block (one column per
    # right-hand side): one GEMV or one GEMM on the shared operators.

    def estimate(self, ys: np.ndarray) -> np.ndarray:
        return self.estimator @ ys

    def regularized_estimate(self, ys: np.ndarray, lam: float) -> np.ndarray:
        """Tikhonov solve ``(R^T R + lam I)^{-1} R^T y`` off the shared SVD.

        With ``R = U S V^T`` the regularized operator is
        ``V diag(s / (s^2 + lam)) U^T`` — assembled from the one cached
        factorisation, no second factorisation path (RP001).  ``lam -> 0``
        recovers the pseudo-inverse (zero singular values contribute
        nothing either way).
        """
        u, s, vt, _ = self.factors
        k = s.shape[0]
        coef = s / (s * s + float(lam))
        uty = u.T @ ys
        scaled = coef * uty if uty.ndim == 1 else coef[:, None] * uty
        return vt[:k].T @ scaled

    def predict(self, xs: np.ndarray) -> np.ndarray:
        return self.matrix @ xs

    def residual(self, ys: np.ndarray) -> np.ndarray:
        return self.column_space_projector @ ys - ys

    def estimator_columns(self, cols: np.ndarray) -> np.ndarray:
        return self.estimator[:, cols]

    def residual_projector_columns(self, cols: np.ndarray) -> np.ndarray:
        return self.residual_projector[:, cols]


class SparseBackend:
    """Matrix-free sparse kernel: CSR storage, Gram/LSMR solves.

    ``matrix`` is ``R`` in CSR form (|P| x |L|) of the
    :class:`~repro.tomography.linear_system.LinearSystem` this backend
    serves.  As with :class:`DenseBackend`, the backend holds
    no reference back to that system, so a dropped system and its factors
    are freed by reference counting, not left for the cycle collector.

    Estimates and residuals never materialise ``R⁺`` or the dense
    projectors.  Quantities that are irreducibly dense (the full
    estimator matrix, the projectors, a nullspace basis, singular
    values) fall back to a lazily constructed :class:`DenseBackend` over
    a densified copy of the same matrix, so requesting them is always
    *correct* — merely not matrix-free — and parity with the dense
    backend is exact for them.  That dense copy is made once, on first
    request, and is also the system's ``LinearSystem.matrix`` view.
    """

    name = "sparse"

    def __init__(self, matrix: scipy.sparse.csr_matrix) -> None:
        self.matrix = matrix
        self._regularized_factors: dict[float, tuple] = {}

    # -- storage ----------------------------------------------------------

    @cached_property
    def matrix_t(self) -> scipy.sparse.csr_matrix:
        """``R^T`` in CSR form (cached — transposition is not free at scale)."""
        return self.matrix.T.tocsr()

    @cached_property
    def _dense_fallback(self) -> DenseBackend:
        """Dense twin used for irreducibly dense quantities."""
        return DenseBackend(self.matrix.toarray())

    # -- small-side Gram factorisation ------------------------------------

    @cached_property
    def _gram(self) -> np.ndarray:
        """The smaller-side Gram matrix, densified (k x k, k = min(m, n))."""
        m, n = self.matrix.shape
        if m >= n:
            gram = self.matrix_t @ self.matrix
        else:
            gram = self.matrix @ self.matrix_t
        return np.asarray(gram.todense(), dtype=float)

    @cached_property
    def _cholesky(self) -> tuple | None:
        """Certified Cholesky factor of the Gram, or None when deficient.

        The certificate is a verification solve: reconstruct a known
        vector through the factorisation and require the round trip to be
        accurate.  A near-singular Gram that Cholesky happens to survive
        fails the round trip and is treated as rank-deficient, routing
        estimates through LSMR instead of an unstable direct solve.
        """
        gram = self._gram
        k = gram.shape[0]
        if k == 0:
            return None
        obs.counter("gram_cholesky")
        try:
            factor = scipy.linalg.cho_factor(gram, check_finite=False)
        except scipy.linalg.LinAlgError:
            return None
        diag = np.abs(np.diagonal(factor[0]))
        if diag.min() <= 1e-12 * max(diag.max(), 1.0):
            return None
        probe = np.cos(np.arange(k, dtype=float))
        rhs = gram @ probe
        back = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
        scale = float(np.abs(probe).max()) or 1.0
        if float(np.abs(back - probe).max()) > 1e-8 * scale:
            return None
        # Stored as a CLEAN, Fortran-ordered upper triangle: cho_factor
        # leaves garbage in the unused half, the rank-1 update kernels
        # require (and preserve) the clean form, and keeping the LAPACK
        # memory order lets every later cho_solve run copy-free.
        return (np.asfortranarray(np.triu(factor[0])), False)

    # -- rank -------------------------------------------------------------

    @cached_property
    def _rank(self) -> int:
        """Numerical rank under the shared cutoff, without a dense SVD.

        Full small-side rank is certified by the Gram Cholesky.  When the
        Gram is deficient, the rank is read off its eigenvalue spectrum,
        but only when every eigenvalue sits far from the decision
        threshold (a factor-4 spectral gap both ways); ambiguous spectra
        — where squaring the condition number could miscount — fall back
        to the exact dense factorisation.  Routing matrices have integer
        spectra whose zero singular values are exact, so the fallback is
        rare in practice.
        """
        m, n = self.matrix.shape
        k = min(m, n)
        if k == 0 or self.matrix.nnz == 0:
            return 0
        if self._cholesky is not None:
            return k
        obs.counter("gram_eigh")
        lam = scipy.linalg.eigvalsh(self._gram)
        s = np.sqrt(np.clip(lam, 0.0, None))
        s_max = float(s[-1])
        if s_max == 0.0:
            return 0
        cutoff = DEFAULT_RANK_TOL * max(m, n) * s_max
        # Resolution floor of the Gram spectrum in singular-value units:
        # eigenvalues carry O(k * eps * lam_max) absolute error.
        noise = s_max * np.sqrt(64.0 * k * np.finfo(float).eps)
        threshold = max(cutoff, 8.0 * noise)
        clear_above = s >= 4.0 * threshold
        clear_below = s <= threshold / 4.0
        if bool(np.all(clear_above | clear_below)):
            return int(np.count_nonzero(clear_above))
        return self._dense_fallback.rank

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def singular_values(self) -> np.ndarray:
        """Exact singular values require the dense factors (documented cost)."""
        return self._dense_fallback.singular_values

    # -- solves -----------------------------------------------------------

    def _solve_gram_tall(self, ys: np.ndarray) -> np.ndarray:
        """Full column rank: ``x = (R^T R)^{-1} R^T y`` with refinement.

        Refinement residuals use two sparse matvecs instead of a dense
        Gram GEMV — same arithmetic, but ``O(nnz)`` instead of ``O(k^2)``
        traffic — and stop early once the residual hits roundoff.
        """
        factor = self._cholesky
        aty = self.matrix_t @ ys
        scale = max(1.0, float(np.abs(aty).max(initial=0.0)))
        x = scipy.linalg.cho_solve(factor, aty, check_finite=False)
        for _ in range(_REFINE_STEPS):
            residual = aty - self.matrix_t @ (self.matrix @ x)
            if float(np.abs(residual).max(initial=0.0)) <= _REFINE_ATOL * scale:
                break
            x = x + scipy.linalg.cho_solve(factor, residual, check_finite=False)
        return x

    def _solve_gram_wide(self, ys: np.ndarray) -> np.ndarray:
        """Full row rank: min-norm ``x = R^T (R R^T)^{-1} y`` with refinement."""
        factor = self._cholesky
        scale = max(1.0, float(np.abs(ys).max(initial=0.0)))
        z = scipy.linalg.cho_solve(factor, ys, check_finite=False)
        for _ in range(_REFINE_STEPS):
            residual = ys - self.matrix @ (self.matrix_t @ z)
            if float(np.abs(residual).max(initial=0.0)) <= _REFINE_ATOL * scale:
                break
            z = z + scipy.linalg.cho_solve(factor, residual, check_finite=False)
        return self.matrix_t @ z

    def _solve_lsmr(self, y: np.ndarray) -> np.ndarray:
        """Min-norm least squares via LSMR, with refinement passes.

        LSMR iterates in the row space of ``R`` from a zero start, so its
        limit — and every refinement correction — is the minimum-norm
        least-squares solution, matching ``R⁺ y`` for rank-deficient
        systems too.
        """
        matrix = self.matrix
        if matrix.nnz == 0:
            return np.zeros(matrix.shape[1])
        x = lsmr(matrix, y, atol=_LSMR_TOL, btol=_LSMR_TOL, conlim=1e14)[0]
        for _ in range(_REFINE_STEPS):
            residual = y - matrix @ x
            correction = lsmr(
                matrix, residual, atol=_LSMR_TOL, btol=_LSMR_TOL, conlim=1e14
            )[0]
            if not np.any(correction):
                break
            x = x + correction
        return x

    # Every operation takes a vector or a column block (one column per
    # right-hand side).

    def estimate(self, ys: np.ndarray) -> np.ndarray:
        """Min-norm least squares: one Gram solve per call when certified.

        With a certified full-rank Gram a block is one LAPACK triangular
        multi-solve; otherwise each column runs LSMR (the min-norm path
        has no blocked equivalent in scipy).
        """
        obs.counter("sparse_solve")
        if self._cholesky is not None:
            m, n = self.matrix.shape
            solve = self._solve_gram_tall if m >= n else self._solve_gram_wide
            return solve(ys)
        if ys.ndim == 1:
            return self._solve_lsmr(ys)
        out = np.empty((self.matrix.shape[1], ys.shape[1]))
        for j in range(ys.shape[1]):
            out[:, j] = self._solve_lsmr(ys[:, j])
        return out

    def _regularized_cholesky(self, lam: float) -> tuple:
        """Cholesky of the shifted small-side Gram ``G + lam I`` (memoised).

        ``lam > 0`` makes the shifted Gram positive definite whatever the
        rank of ``R``, so this factorisation always succeeds — no LSMR
        fallback needed on the regularized path.  One estimator instance
        solves many right-hand sides with a fixed ``lam``, hence the
        per-``lam`` memo.
        """
        factor = self._regularized_factors.get(float(lam))
        if factor is None:
            obs.counter("gram_cholesky")
            shifted = self._gram + float(lam) * np.eye(self._gram.shape[0])
            factor = scipy.linalg.cho_factor(shifted, check_finite=False)
            self._regularized_factors[float(lam)] = factor
        return factor

    def regularized_estimate(self, ys: np.ndarray, lam: float) -> np.ndarray:
        """Tikhonov solve via the small-side Gram, matrix-free either way.

        Tall systems solve ``(R^T R + lam I) x = R^T y`` directly; wide
        systems use the push-through identity
        ``(R^T R + lam I)^{-1} R^T = R^T (R R^T + lam I)^{-1}`` so the
        smaller Gram serves both orientations.  Iterative refinement
        recovers direct-solve accuracy, matching the dense SVD path to
        well below the library parity tolerance.
        """
        obs.counter("sparse_solve")
        factor = self._regularized_cholesky(lam)
        shifted = self._gram + float(lam) * np.eye(self._gram.shape[0])
        m, n = self.matrix.shape
        if m >= n:
            rhs = self.matrix_t @ ys
            x = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
            for _ in range(_REFINE_STEPS):
                residual = rhs - shifted @ x
                x = x + scipy.linalg.cho_solve(factor, residual, check_finite=False)
            return x
        z = scipy.linalg.cho_solve(factor, ys, check_finite=False)
        for _ in range(_REFINE_STEPS):
            residual = ys - shifted @ z
            z = z + scipy.linalg.cho_solve(factor, residual, check_finite=False)
        return self.matrix_t @ z

    def predict(self, xs: np.ndarray) -> np.ndarray:
        return self.matrix @ xs

    def residual(self, ys: np.ndarray) -> np.ndarray:
        """``R x_hat - y`` via sparse matvecs — no dense projector."""
        return self.matrix @ self.estimate(ys) - ys

    def estimator_columns(self, cols: np.ndarray) -> np.ndarray:
        """Selected columns of ``R⁺`` via batched unit-vector solves.

        ``R⁺[:, j] = R⁺ e_j``, so the requested columns are one
        :meth:`estimate` over the corresponding identity columns —
        the full dense pseudo-inverse is never formed.
        """
        m, n = self.matrix.shape
        if cols.size == 0:
            return np.zeros((n, 0))
        unit = np.zeros((m, cols.size))
        unit[cols, np.arange(cols.size)] = 1.0
        return self.estimate(unit)

    def residual_projector_columns(self, cols: np.ndarray) -> np.ndarray:
        """Selected columns of ``I - R R⁺`` without the dense projector."""
        m = self.matrix.shape[0]
        if cols.size == 0:
            return np.zeros((m, 0))
        unit = np.zeros((m, cols.size))
        unit[cols, np.arange(cols.size)] = 1.0
        return unit - (self.matrix @ self.estimate(unit))

    # -- incremental evolution (LinearSystem.evolve seam) ------------------

    def seed_evolution(self, target, remove_indices, add_rows) -> dict | None:
        """Install an incrementally patched Cholesky into ``target``.

        ``target`` is the fresh sparse backend of the evolved
        :class:`~repro.tomography.linear_system.LinearSystem` (evolve
        pins the parent's backend).  Its ``matrix`` is already the
        evolved CSR — this backend's rows minus ``remove_indices``, then
        ``add_rows`` — so only the Cholesky factor is patched here, and
        every row it needs is read from one of the two CSRs:

        - removals run highest index first, so a tall downdate reads its
          row from this backend's CSR at an index that is still valid;
        - a wide append (or the fused one-out / one-in replace) borders
          the factor with ``b``, the dot products of ``target.matrix``'s
          leading rows — the rows live at that step — with the new row.

        Only the certified-Cholesky regime evolves.  On success the
        target's ``_cholesky`` and ``_rank`` caches are pre-seeded (full
        small-side rank, certified below), so its first estimate pays no
        ``cho_factor``; its ``matrix_t`` stays lazy.  Returns ``None``
        then, and otherwise ``{"reason": step}`` for a cold rebuild, where
        ``step`` left the certified chain: ``unwarmed`` (no factor yet),
        ``rank_deficient`` (an LSMR parent has no factor to patch),
        ``orientation_flip`` (the small side changes), ``exhausted_pivot``
        (a failed tall downdate), ``dependent_row`` (a failed append or
        replace) or ``certification`` (the final round-trip probe, whose
        maximum error is added as ``probe_error``).
        """
        if "_cholesky" not in self.__dict__:
            return {"reason": "unwarmed"}
        if self._cholesky is None:
            return {"reason": "rank_deficient"}
        chol = self._cholesky[0]
        evolved = target.matrix
        if remove_indices or add_rows:
            m, n = self.matrix.shape
            removals = sorted(remove_indices, reverse=True)
            additions = [np.asarray(row, dtype=float) for row in add_rows]
            if m < n and len(removals) == 1 and len(additions) == 1:
                # The dominant churn pattern (one path fails, one
                # recovers): :func:`cholesky_replace` fuses the delete and
                # the border into one pass with a single allocation.
                (index,), (row,) = removals, additions
                b = (evolved @ row)[: m - 1]
                chol = cholesky_replace(chol, index, b, float(row @ row))
                if chol is None:
                    return {"reason": "dependent_row"}
                removals, additions = [], []
            for index in removals:
                if m >= n:
                    # Tall: hyperbolic downdate of the R^T R factor, which
                    # fails when the removal exhausts a pivot.
                    if m - 1 < n:
                        return {"reason": "orientation_flip"}
                    row = self.matrix[index].toarray().ravel()
                    chol = cholesky_downdate(chol, row)
                    if chol is None:
                        return {"reason": "exhausted_pivot"}
                else:
                    # Wide: drop one dimension of the R R^T factor.
                    chol = cholesky_delete(chol, index)
                m -= 1
            for row in additions:
                if m >= n:
                    # Tall: rank-1 update of the R^T R factor.
                    chol = cholesky_update(chol, row)
                else:
                    # Wide: border the R R^T factor by one dimension.
                    if m + 1 >= n:
                        return {"reason": "orientation_flip"}
                    b = (evolved @ row)[:m]
                    chol = cholesky_append(chol, b, float(row @ row))
                    if chol is None:
                        return {"reason": "dependent_row"}
                m += 1
            probe_error = self._certify_state(evolved, chol)
            if probe_error is not None:
                return {"reason": "certification", "probe_error": probe_error}
        target._cholesky = (chol, False)
        target._rank = min(evolved.shape)
        return None

    @staticmethod
    def _certify_state(matrix, chol) -> float | None:
        """Probe the patched factor against the evolved matrix itself.

        The round trip ``chol^{-T} chol^{-1} (G p)`` — with ``G p``
        computed from two sparse matvecs against the TRUE evolved matrix,
        not any incrementally maintained copy — bounds the accumulated
        drift of the whole update chain in one shot; the pivot floor
        rejects factors that survived the chain numerically but are too
        ill-conditioned to solve with.  Returns ``None`` when the factor
        is certified, and otherwise the probe's maximum error (infinite
        when the factor is empty or fails the pivot floor).
        """
        m, n = matrix.shape
        k = chol.shape[0]
        diag = np.abs(np.diagonal(chol))
        if k == 0 or min(m, n) != k or diag.min() <= 1e-12 * max(diag.max(), 1.0):
            return np.inf
        p = np.cos(np.arange(k, dtype=float))
        if m >= n:
            rhs = matrix.T @ (matrix @ p)
        else:
            rhs = matrix @ (matrix.T @ p)
        back = scipy.linalg.cho_solve((chol, False), rhs, check_finite=False)
        error = float(np.abs(back - p).max())  # max |p| = cos(0) = 1
        return error if error > 1e-8 else None

    # -- irreducibly dense operators (exact dense fallback) ---------------

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        return self._dense_fallback.factors

    @property
    def estimator(self) -> np.ndarray:
        return self._dense_fallback.estimator

    @property
    def column_space_projector(self) -> np.ndarray:
        return self._dense_fallback.column_space_projector

    @property
    def residual_projector(self) -> np.ndarray:
        return self._dense_fallback.residual_projector

    @property
    def nullspace(self) -> np.ndarray:
        return self._dense_fallback.nullspace
