"""Rank-1 factorization update kernels for evolving measurement systems.

When a measurement path enters or leaves the routing matrix, the shared
factorization behind :class:`~repro.tomography.linear_system.LinearSystem`
changes by one row.  Recomputing it from scratch is cubic in the matrix
dimensions; these kernels patch the existing factors instead:

- :func:`svd_append_row` / :func:`svd_remove_row` update a compact SVD
  (Brand-style: the correction concentrates in a small core matrix whose
  SVD/eigendecomposition costs ``O(k^3)`` for rank ``k``, versus
  ``O(m n min(m, n))`` for a cold factorization).
- :func:`cholesky_update` / :func:`cholesky_downdate` apply a rank-1
  correction ``G +/- w w^T`` to an upper-triangular Cholesky factor in
  ``O(k^2)`` (Givens rotations for the update, hyperbolic rotations for
  the downdate), and :func:`cholesky_append` / :func:`cholesky_delete`
  grow or shrink the factor by one dimension — the four moves the sparse
  backend's Gram factor needs under path churn.

Downdates are not unconditionally stable: removing a row can make the
problem ill-conditioned faster than floating point can track (the
eigenvalue route squares the conditioning; the hyperbolic rotation can
hit a non-positive pivot).  Every kernel therefore either succeeds with
a certified result or returns ``None`` — callers fall back to a cold
refactorization, never to a silently degraded factor.
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
    "svd_append_row",
    "svd_remove_row",
]

#: Relative floor for downdated pivots: below this the correction has
#: consumed the factor's information and a cold rebuild is required.
_PIVOT_TOL = 1e-12


# ----------------------------------------------------------------------
# SVD row updates (dense backend)
# ----------------------------------------------------------------------
def svd_append_row(
    u: np.ndarray, s: np.ndarray, vt: np.ndarray, row: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factors of ``vstack([M, row])`` from the factors of ``M``.

    ``(u, s, vt)`` follow the :func:`repro.utils.linalg.compact_svd`
    convention: ``u`` is ``(m, k)`` economy with ``k = min(m, n)``,
    ``s`` is ``(k,)``, and ``vt`` is the complete ``(n, n)`` right basis
    whose trailing rows span the nullspace.  The result follows the same
    convention for the ``(m + 1, n)`` matrix.  Cost is the SVD of a
    ``(k + 1)``-sized core plus ``O((m + n) k)`` basis rotations.
    """
    m, k = u.shape
    n = vt.shape[1]
    x = vt @ row
    if k < n:
        # Wide regime: the new row may carry energy outside the current
        # row space.  Split x along the row space / nullspace boundary
        # and absorb the out-of-space part as one new right direction q.
        x1, x2 = x[:k], x[k:]
        rho = float(np.linalg.norm(x2))
        if rho == 0.0:
            q = np.zeros(n - k)
            q[0] = 1.0
        else:
            q = x2 / rho
        core = np.zeros((k + 1, k + 1))
        core[np.arange(k), np.arange(k)] = s
        core[k, :k] = x1
        core[k, k] = rho
        with obs.span("svd_update"):
            obs.counter("svd_update")
            cu, cs, cvt = np.linalg.svd(core)  # repro: noqa RP001
        u_new = np.empty((m + 1, k + 1))
        u_new[:m] = u @ cu[:k]
        u_new[m] = cu[k]
        nullspace_rows = vt[k:]
        q_row = q @ nullspace_rows
        basis = np.vstack([vt[:k], q_row])
        vt_new = np.empty((n, n))
        vt_new[: k + 1] = cvt @ basis
        # Rotate the nullspace block so its first row is q_row, then drop
        # it: a symmetric Householder H = I - 2 v v^T / ||v||^2 with
        # v = e1 - q maps e1 <-> q, so (H @ N)[0] = q_row and the rest is
        # an orthonormal basis of the complement of q inside span(N).
        v = -q
        v[0] += 1.0
        vnorm2 = float(v @ v)
        if vnorm2 > 0.0:
            rotated = nullspace_rows - np.outer(v, (v @ nullspace_rows) * (2.0 / vnorm2))
        else:
            rotated = nullspace_rows
        vt_new[k + 1 :] = rotated[1:]
        return u_new, cs, vt_new
    # Tall regime (k == n <= m): the row space already spans R^n, so only
    # the left basis grows.  The core is (k + 1) x k; its economy SVD
    # keeps k singular values and vt stays n x n.
    core = np.zeros((k + 1, k))
    core[np.arange(k), np.arange(k)] = s
    core[k] = x
    with obs.span("svd_update"):
        obs.counter("svd_update")
        cu, cs, cvt = np.linalg.svd(core, full_matrices=False)  # repro: noqa RP001
    u_new = np.empty((m + 1, k))
    u_new[:m] = u @ cu[:k]
    u_new[m] = cu[k]
    return u_new, cs, cvt @ vt


def svd_remove_row(
    u: np.ndarray, s: np.ndarray, vt: np.ndarray, index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Factors of ``M`` with row ``index`` deleted, or ``None``.

    Deleting row ``i`` subtracts the rank-1 term ``r_i r_i^T`` from
    ``M^T M``; restricted to the current right basis this is the small
    symmetric downdate ``W = diag(s^2) - z z^T`` with ``z = s * u[i]``,
    whose eigendecomposition supplies the new factors.  The eigenvalue
    route squares the conditioning (an eigenvalue error of ``eps *
    lmax`` is a singular-value error of ``sqrt(eps) * smax``), so the
    result must be re-certified by the caller; structurally ambiguous
    cases — a rank drop whose discarded eigenvalue is not numerically
    zero, or a left basis that cannot be orthonormally completed —
    return ``None`` for a cold rebuild.
    """
    m, k = u.shape
    n = vt.shape[1]
    c = u[index]
    z = s * c
    w_mat = np.diag(s * s) - np.outer(z, z)
    with obs.span("svd_downdate"):
        obs.counter("svd_downdate")
        eigvals, eigvecs = scipy.linalg.eigh(w_mat)
    # eigh returns ascending order; the SVD convention is descending.
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    k_new = min(m - 1, n)
    s_max = float(s[0]) if k else 0.0
    if k_new < k:
        # m <= n: one right direction leaves the row space.  That only
        # happens cleanly when the discarded eigenvalue is numerically
        # zero; otherwise the downdate is not trustworthy.
        dropped = float(eigvals[k - 1])
        if abs(dropped) > 1e-8 * max(s_max * s_max, 1.0):
            return None
    e_keep = eigvecs[:, :k_new]
    s_new = np.sqrt(np.clip(eigvals[:k_new], 0.0, None))
    u_del = np.delete(u, index, axis=0)
    # scaled[:, j] = M_del @ (right direction j); its norm IS sigma'_j in
    # exact arithmetic, so normalizing recovers the left basis directly.
    scaled = u_del @ (s[:, None] * e_keep)
    noise = s_max * np.sqrt(64.0 * max(k, 1) * np.finfo(float).eps)
    u_new = np.empty((m - 1, k_new))
    degenerate: list[int] = []
    for j in range(k_new):
        if s_new[j] > noise:
            u_new[:, j] = scaled[:, j] / s_new[j]
        else:
            degenerate.append(j)
    if degenerate and not _complete_orthonormal(u_new, degenerate):
        return None
    vt_new = np.empty((n, n))
    vt_new[:k_new] = e_keep.T @ vt[:k]
    if k_new < k:
        # The dropped right direction joins the nullspace block, ahead of
        # the rows that were already there.
        vt_new[k_new] = eigvecs[:, k - 1] @ vt[:k]
        vt_new[k_new + 1 :] = vt[k:]
    else:
        vt_new[k_new:] = vt[k:]
    return u_new, s_new, vt_new


def _complete_orthonormal(basis: np.ndarray, columns: list[int]) -> bool:
    """Fill ``columns`` of ``basis`` with orthonormal complement vectors.

    Deterministic Gram-Schmidt over cycled identity candidates; the
    other columns of ``basis`` must already be orthonormal.  Returns
    ``False`` when no candidate survives projection (caller rebuilds).
    """
    m = basis.shape[0]
    filled = [j for j in range(basis.shape[1]) if j not in columns]
    for j in columns:
        accepted = False
        for attempt in range(m):
            candidate = np.zeros(m)
            candidate[(j + attempt) % m] = 1.0
            for other in filled:
                candidate -= (basis[:, other] @ candidate) * basis[:, other]
            norm = float(np.linalg.norm(candidate))
            if norm > 0.5:
                basis[:, j] = candidate / norm
                filled.append(j)
                accepted = True
                break
        if not accepted:
            return False
    return True


# ----------------------------------------------------------------------
# Cholesky rank-1 updates (sparse backend's Gram factor)
# ----------------------------------------------------------------------
def cholesky_update(factor: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Upper factor of ``U^T U + w w^T`` via Givens rotations.

    Unconditionally stable (adding ``w w^T`` keeps the Gram positive
    definite), so unlike the downdate this never returns ``None``.
    ``factor`` must be a clean upper triangle; the input is not mutated.
    Memory order is preserved (``order="K"``) so Fortran-ordered factors
    stay copy-free for LAPACK solves downstream.
    """
    u_new = np.array(factor, dtype=float, order="K")
    work = np.asarray(w, dtype=float).copy()
    k = u_new.shape[0]
    with obs.span("cholesky_update"):
        obs.counter("cholesky_update")
        for j in range(k):
            a = u_new[j, j]
            b = work[j]
            r = float(np.hypot(a, b))
            if r == 0.0:
                continue
            c, sn = a / r, b / r
            row = u_new[j, j:].copy()
            tail = work[j:]
            u_new[j, j:] = c * row + sn * tail
            work[j:] = c * tail - sn * row
    return u_new


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
    with obs.span("cholesky_update"):
        obs.counter("cholesky_update")
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
    with obs.span("cholesky_update"):
        obs.counter("cholesky_update")
        trailing = cholesky_update(
            factor[index + 1 :, index + 1 :], factor[index, index + 1 :]
        )
        u_new = np.zeros((k, k), order="F")
        u_new[:index, :index] = factor[:index, :index]
        u_new[:index, index : k - 1] = factor[:index, index + 1 :]
        u_new[index : k - 1, index : k - 1] = trailing
        if k > 1:
            # Solve against the FULL k x k triangle with the rhs padded
            # by a zero: forward substitution never lets the last
            # equation feed back into the first k - 1 components, so
            # w[:k-1] equals the leading-block solution while the full
            # Fortran-contiguous factor keeps LAPACK copy-free (a sliced
            # leading block would force a 50 MB re-pack at ISP scale).
            u_new[k - 1, k - 1] = 1.0
            padded = np.empty(k)
            padded[: k - 1] = b
            padded[k - 1] = 0.0
            wv = scipy.linalg.solve_triangular(
                u_new, padded, trans="T", check_finite=False
            )[: k - 1]
            gamma2 = float(d) - float(wv @ wv)
        else:
            wv = np.zeros(0)
            gamma2 = float(d)
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
    with obs.span("cholesky_downdate"):
        obs.counter("cholesky_downdate")
        trailing = cholesky_update(
            factor[index + 1 :, index + 1 :], factor[index, index + 1 :]
        )
        u_new = np.zeros((k - 1, k - 1), order="F")
        u_new[:index, :index] = factor[:index, :index]
        u_new[:index, index:] = factor[:index, index + 1 :]
        u_new[index:, index:] = trailing
    return u_new
