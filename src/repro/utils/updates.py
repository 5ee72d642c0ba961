"""Rank-1 Cholesky update kernels for evolving sparse measurement systems.

When a measurement path enters or leaves the routing matrix, the
small-side Gram matrix behind the sparse backend of
:class:`~repro.tomography.linear_system.LinearSystem` changes by a
rank-1 term or by one dimension.  Refactorizing it is cubic in its
order ``k``; these kernels patch its upper-triangular Cholesky factor in
``O(k^2)`` instead:

- :func:`cholesky_update` / :func:`cholesky_downdate` apply a rank-1
  correction ``G +/- w w^T`` (one compiled QR row insertion for the
  update, hyperbolic rotations for the downdate);
- :func:`cholesky_append` / :func:`cholesky_delete` grow or shrink the
  factor by one dimension, and :func:`cholesky_replace` fuses a delete
  with an append — the moves the Gram factor needs under path churn.

Downdates and appends are not unconditionally stable: a hyperbolic
rotation can hit a non-positive pivot, and a bordered Schur complement
vanishes when the new row depends on the old ones.  Those kernels then
return ``None`` — callers fall back to a cold refactorization, never to
a silently degraded factor.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.obs import core as obs

__all__ = [
    "cholesky_append",
    "cholesky_delete",
    "cholesky_downdate",
    "cholesky_replace",
    "cholesky_update",
]

#: Relative floor for downdated pivots: below this the correction has
#: consumed the factor's information and a cold rebuild is required.
_PIVOT_TOL = 1e-12


def _insert_row(factor: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Upper factor of ``U^T U + w w^T`` as a view; emits no obs record.

    One compiled ``qr_insert`` (Givens rotations only, so backward
    stable) appends the row ``w^T`` to the QR factorization ``U = I U``.
    Rows with a negative diagonal are negated, which keeps ``R^T R``; the
    zero last row of the ``(k + 1) x k`` result is sliced off.
    """
    k = factor.shape[0]
    _, r = scipy.linalg.qr_insert(
        np.eye(k), factor, w, k, which="row", check_finite=False
    )
    r = r[:k]
    r[np.diagonal(r) < 0.0] *= -1.0
    return r


def cholesky_update(factor: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Upper factor of ``U^T U + w w^T``, by one QR row insertion.

    Unconditionally stable (adding ``w w^T`` keeps the Gram positive
    definite), so unlike the downdate this never returns ``None``.
    ``factor`` must be a clean upper triangle; the input is not mutated.
    The result is a clean upper triangle in Fortran order, so LAPACK
    solves downstream run copy-free.
    """
    with obs.span("cholesky_update"):
        obs.counter("cholesky_update")
        return np.asfortranarray(_insert_row(factor, w))


def cholesky_downdate(factor: np.ndarray, w: np.ndarray) -> np.ndarray | None:
    """Upper factor of ``U^T U - w w^T`` via hyperbolic rotations, or ``None``.

    Returns ``None`` when a pivot loses (almost) all its mass — the
    downdated Gram is then numerically indefinite and only a cold
    refactorization can certify what remains.
    """
    u_new = np.array(factor, dtype=float, order="K")
    work = np.asarray(w, dtype=float).copy()
    k = u_new.shape[0]
    with obs.span("cholesky_downdate"):
        obs.counter("cholesky_downdate")
        for j in range(k):
            a = u_new[j, j]
            b = work[j]
            d2 = (a - b) * (a + b)
            if a <= 0.0 or d2 <= _PIVOT_TOL * a * a:
                return None
            r = float(np.sqrt(d2))
            row = u_new[j, j:].copy()
            tail = work[j:]
            u_new[j, j:] = (a * row - b * tail) / r
            work[j:] = (a * tail - b * row) / r
    return u_new


def cholesky_append(
    factor: np.ndarray, b: np.ndarray, d: float
) -> np.ndarray | None:
    """Upper factor of the Gram bordered by column ``b`` and corner ``d``.

    For ``G' = [[G, b], [b^T, d]]`` with ``G = U^T U``: solve
    ``U^T w = b`` and set the new corner to ``sqrt(d - w^T w)``.  Returns
    ``None`` when the Schur complement is not safely positive (the new
    dimension is linearly dependent on the old ones).  ``factor`` must be
    a clean upper triangle (zeros below the diagonal) — it is embedded
    verbatim in the result.
    """
    k = factor.shape[0]
    with obs.span("cholesky_append"):
        obs.counter("cholesky_append")
        if k:
            wv = scipy.linalg.solve_triangular(
                factor, b, trans="T", check_finite=False
            )
            gamma2 = float(d) - float(wv @ wv)
        else:
            wv = np.zeros(0)
            gamma2 = float(d)
        if gamma2 <= _PIVOT_TOL * max(float(d), 1.0):
            return None
        u_new = np.zeros((k + 1, k + 1), order="F")
        u_new[:k, :k] = factor
        u_new[:k, k] = wv
        u_new[k, k] = np.sqrt(gamma2)
    return u_new


def cholesky_replace(
    factor: np.ndarray, index: int, b: np.ndarray, d: float
) -> np.ndarray | None:
    """Upper factor after deleting dimension ``index`` and bordering anew.

    Fuses :func:`cholesky_delete` followed by :func:`cholesky_append`
    into one pass with a single output allocation — the dominant churn
    pattern (one path leaves, one path joins) would otherwise copy the
    full ``k x k`` factor twice, and on memory-bound hosts those copies
    cost more than the arithmetic.  ``b``/``d`` border the *post-delete*
    Gram (``b`` has length ``k - 1``).  Returns ``None`` when the new
    dimension's Schur complement is not safely positive.  ``factor``
    must be a clean upper triangle.
    """
    k = factor.shape[0]
    with obs.span("cholesky_replace"):
        obs.counter("cholesky_replace")
        trailing = _insert_row(
            factor[index + 1 :, index + 1 :], factor[index, index + 1 :]
        )
        u_new = np.zeros((k, k), order="F")
        u_new[:index, :index] = factor[:index, :index]
        u_new[:index, index : k - 1] = factor[:index, index + 1 :]
        u_new[index : k - 1, index : k - 1] = trailing
        # Solve against the FULL k x k triangle with the rhs padded by a
        # zero: forward substitution never lets the last equation feed
        # back into the first k - 1 components, so w[:k-1] equals the
        # leading-block solution while the full Fortran-contiguous factor
        # keeps LAPACK copy-free (a sliced leading block would force a
        # 50 MB re-pack at ISP scale).  At k = 1, w is empty.
        u_new[k - 1, k - 1] = 1.0
        padded = np.empty(k)
        padded[: k - 1] = b
        padded[k - 1] = 0.0
        wv = scipy.linalg.solve_triangular(
            u_new, padded, trans="T", check_finite=False
        )[: k - 1]
        gamma2 = float(d) - float(wv @ wv)
        if gamma2 <= _PIVOT_TOL * max(float(d), 1.0):
            return None
        u_new[: k - 1, k - 1] = wv
        u_new[k - 1, k - 1] = np.sqrt(gamma2)
    return u_new


def cholesky_delete(factor: np.ndarray, index: int) -> np.ndarray:
    """Upper factor of the Gram with dimension ``index`` deleted.

    Deleting row/column ``i`` keeps the leading block untouched; the
    trailing block absorbs the removed column's coupling as a rank-1
    update (always stable — deletion of a principal submatrix preserves
    positive definiteness).  ``factor`` must be a clean upper triangle;
    its leading blocks are copied verbatim into the result.
    """
    k = factor.shape[0]
    with obs.span("cholesky_delete"):
        obs.counter("cholesky_delete")
        trailing = _insert_row(
            factor[index + 1 :, index + 1 :], factor[index, index + 1 :]
        )
        u_new = np.zeros((k - 1, k - 1), order="F")
        u_new[:index, :index] = factor[:index, :index]
        u_new[:index, index:] = factor[:index, index + 1 :]
        u_new[index:, index:] = trailing
    return u_new
