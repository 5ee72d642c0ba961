"""Numerical linear-algebra helpers shared across the library.

These are thin, well-tested wrappers over :mod:`numpy.linalg` that fix the
tolerance conventions used throughout the tomography and attack code.  The
routing matrices produced by this library are small dense 0/1 matrices, so
dense SVD-based routines are appropriate.

Every rank decision, :func:`column_rank`'s included, uses the one cutoff
convention of :func:`compact_svd`, and the derived operators
(pseudo-inverse, projectors, nullspace) come from its one SVD, so they are
mutually consistent.  Callers that need several operators of the *same*
matrix should use :class:`repro.tomography.linear_system.LinearSystem`,
which factorises once and derives them all from the shared factors.
"""

from __future__ import annotations

import numpy as np

from repro.obs import core as obs

__all__ = [
    "column_rank",
    "compact_svd",
    "nullspace",
    "projector_onto_column_space",
    "DEFAULT_RANK_TOL",
]

#: Relative singular-value cutoff used for rank decisions on routing matrices.
DEFAULT_RANK_TOL = 1e-10


def _as_matrix(matrix: np.ndarray) -> np.ndarray:
    out = np.asarray(matrix, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={out.ndim}")
    return out


def compact_svd(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One SVD, one cutoff: returns ``(u, s, vt, rank)``.

    ``u`` has ``min(m, n)`` columns (economy form), while ``vt`` is always
    the *complete* ``n x n`` right-singular basis so the trailing rows span
    the nullspace even for wide matrices.  ``rank`` counts singular values
    above ``DEFAULT_RANK_TOL * max(m, n) * s_max`` — the same convention
    :func:`nullspace` has always used, now shared by every derived
    operator.
    """
    mat = _as_matrix(matrix)
    m, n = mat.shape
    if mat.size == 0:
        return np.zeros((m, 0)), np.zeros(0), np.eye(n), 0
    obs.counter("svd")
    # full_matrices only when the matrix is wide: that is the one case the
    # economy factorisation would truncate the right-singular basis needed
    # for the nullspace.
    u, s, vt = np.linalg.svd(mat, full_matrices=m < n)
    return u, s, vt, _rank(s, mat.shape)


def _rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """How many of the descending singular values ``s`` of an ``m x n``
    matrix exceed ``DEFAULT_RANK_TOL * max(m, n) * s_max``."""
    cutoff = DEFAULT_RANK_TOL * max(shape) * (s[0] if s.size else 1.0)
    return int(np.sum(s > cutoff))


def column_rank(matrix: np.ndarray) -> int:
    """Return the numerical rank of ``matrix``.

    Counts singular values above :func:`compact_svd`'s cutoff, so it
    agrees with :attr:`repro.tomography.linear_system.LinearSystem.rank`
    on a dense system; no singular vectors are computed.
    """
    mat = _as_matrix(matrix)
    if mat.size == 0:
        return 0
    obs.counter("svd")
    return _rank(np.linalg.svd(mat, compute_uv=False), mat.shape)


def pinv_from_svd(
    u: np.ndarray, s: np.ndarray, vt: np.ndarray, rank: int
) -> np.ndarray:
    """Assemble ``V_r diag(1/s_r) U_r^T`` from precomputed SVD factors."""
    if rank == 0:
        return np.zeros((vt.shape[1], u.shape[0]))
    return (vt[:rank].T / s[:rank]) @ u[:, :rank].T


def nullspace(matrix: np.ndarray) -> np.ndarray:
    """Return an orthonormal basis of the (right) null space as columns.

    The null space of the routing matrix characterises the set of link-metric
    perturbations invisible to every measurement path.
    """
    mat = _as_matrix(matrix)
    if mat.size == 0:
        return np.eye(mat.shape[1])
    _, _, vt, rank = compact_svd(mat)
    return vt[rank:].T.copy()


def projector_onto_column_space(matrix: np.ndarray) -> np.ndarray:
    """Return the orthogonal projector ``P`` with ``P y = R R⁺ y``.

    ``(I - P) y`` is the measurement residual that the scapegoating detector
    of Section IV-B tests against its threshold: measurements consistent with
    *some* link-metric vector lie exactly in the column space of ``R``.
    """
    u, _, _, rank = compact_svd(matrix)
    return u[:, :rank] @ u[:, :rank].T
