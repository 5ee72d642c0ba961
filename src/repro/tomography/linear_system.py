"""The measurement system ``y = R x`` of network tomography.

:class:`LinearSystem` is the one object through which the library reads
any quantity of the routing matrix ``R``: its rank (identifiability,
Theorem 3's square-``R`` case), the *estimator operator* ``R⁺`` (for the
paper's least squares, ``(R^T R)^{-1} R^T`` of eq. 2 when ``R`` has full
column rank), the residual projector ``I - R R⁺`` and a nullspace basis.
The *measurement residual* ``R x_hat - y'`` that the scapegoating
detector thresholds (eq. 23 / Remark 4) is ``predict(estimate(y')) - y'``:
honest measurements lie in the column space of ``R`` (up to noise),
manipulated ones generally do not.

The numerics live in a pluggable backend (:mod:`repro.tomography.backends`,
the only module that factorizes ``R``): the dense backend runs *one*
economy SVD of ``R`` and derives every operator from the same factors;
the sparse backend stores ``R`` in CSR form and solves estimates
matrix-free (Gram Cholesky / LSMR) without ever materialising ``R⁺``.
Which backend runs is resolved per system — an explicit ``backend=``
argument, else a size/density heuristic — so attack contexts, detectors,
the sweep cache and Monte-Carlo drivers pick the right kernel
transparently.

A system holds ``R`` once, in the form its backend computes with: a
dense array for the dense backend, CSR for the sparse one, converted once
from whichever form was handed in.  A sparse system has no dense copy until
:attr:`LinearSystem.matrix` is first requested, and an evolving sparse
system stacks one new CSR per churn epoch.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse

from repro.exceptions import ValidationError
from repro.obs import core as obs
from repro.tomography.backends import (
    DenseBackend,
    SparseBackend,
    density,
    resolve_backend_name,
)
from repro.utils.validation import check_finite_vector

__all__ = ["LinearSystem"]


class LinearSystem:
    """Shared kernel for the measurement system ``y = R x``.

    Parameters
    ----------
    routing_matrix:
        The 0/1 measurement matrix ``R`` (|P| x |L|) — a dense array or a
        ``scipy.sparse`` matrix.
    backend:
        ``"dense"``, ``"sparse"``, ``"auto"`` or ``None``.  ``None`` and
        ``"auto"`` run the auto heuristic (sparse only for large, sparse
        matrices); see
        :func:`repro.tomography.backends.resolve_backend_name`.

    ``R`` is stored once, converted at most once here: to CSR when the
    backend resolves to sparse, to a dense array when it resolves to
    dense.  The backend holds that storage and no reference back to the
    system, so a dropped system is freed by reference counting.  Every
    rank decision uses the one cutoff
    :data:`repro.tomography.backends.DEFAULT_RANK_TOL`.  A matrix that
    is not 2-D raises :class:`~repro.exceptions.ValidationError`.

    Factorisation is lazy: nothing numerical happens until the first
    derived quantity is requested, and each derived operator is then
    cached.  Under the dense backend this replaces three independent dense
    factorisations (estimator ``pinv``, projector ``pinv``, nullspace
    ``svd``) with one; under the sparse backend estimates never
    materialise a dense operator at all.
    """

    def __init__(
        self,
        routing_matrix: np.ndarray,
        *,
        backend: str | None = None,
    ) -> None:
        sparse_input = scipy.sparse.issparse(routing_matrix)
        if sparse_input:
            matrix = routing_matrix.tocsr().astype(float)
        else:
            matrix = np.asarray(routing_matrix, dtype=float)
            if matrix.ndim != 2:
                raise ValidationError(
                    f"routing matrix must be 2-D, got ndim={matrix.ndim}"
                )
        name = resolve_backend_name(
            backend,
            shape=matrix.shape,
            density=density(matrix),
            sparse_input=sparse_input,
        )
        if name == "sparse":
            self._backend = SparseBackend(scipy.sparse.csr_matrix(matrix))
        else:
            self._backend = DenseBackend(matrix.toarray() if sparse_input else matrix)

    # -- backend plumbing --------------------------------------------------

    @property
    def backend_name(self) -> str:
        """Which numerical core serves this system (``dense``/``sparse``)."""
        return self._backend.name

    @cached_property
    def _factorized(self) -> object:
        """Touch the backend's factorisation once, emitting the obs event.

        For the dense backend this is the shared SVD; for the sparse
        backend it is the Gram factorisation that certifies rank and
        powers multi-RHS solves.  Either way the event fires exactly once
        per system, tagged with the backend that did the work.
        """
        rank = self._backend.rank
        if obs.is_enabled():
            obs.event(
                "linear_system_factorize",
                paths=self.num_paths,
                links=self.num_links,
                rank=rank,
                backend=self.backend_name,
            )
        return self._backend

    # -- incremental evolution --------------------------------------------

    #: Whether the latest :meth:`evolve` seeded this system incrementally
    #: (``None`` on systems that were built cold, not evolved).
    evolved_incrementally: bool | None = None

    def evolve(
        self,
        *,
        add_rows: tuple | list = (),
        remove_indices: tuple | list = (),
    ) -> LinearSystem:
        """A new system with rows removed and appended.

        ``remove_indices`` name rows of *this* system's matrix (unique,
        in range); ``add_rows`` are appended after the removals, in
        order.  The evolved system is a fresh :class:`LinearSystem` (same
        backend pinned) over a new ``R`` in this system's storage form:
        on the sparse backend, one CSR stacked from this system's kept
        rows and the added rows, never a dense copy.  A sparse evolve
        patches this system's Gram Cholesky factor when the chain can be
        certified; otherwise, and always on the dense backend, the
        returned system factorizes cold on first use (at the paper's
        scale one dense SVD costs less than patching, and gives the rank
        exactly).  ``evolved_incrementally`` records which path ran, and
        the ``system_evolve`` obs event's ``reason`` says why a rebuild
        is cold: ``dense``, or the step named by
        :meth:`~repro.tomography.backends.SparseBackend.seed_evolution`
        (``None`` when incremental).  This system is never mutated.
        """
        matrix = self._backend.matrix
        m, n = matrix.shape
        removals = sorted({int(i) for i in remove_indices})
        if len(removals) != len(tuple(remove_indices)):
            raise ValidationError("remove_indices must be unique")
        if removals and not (0 <= removals[0] and removals[-1] < m):
            raise ValidationError(
                f"remove_indices must lie in [0, {m}), got {removals}"
            )
        added = [
            check_finite_vector(row, "added row", length=n) for row in add_rows
        ]
        if scipy.sparse.issparse(matrix):
            keep = np.ones(m, dtype=bool)
            keep[removals] = False
            parts = [matrix[keep]]
            if added:
                parts.append(scipy.sparse.csr_matrix(np.asarray(added)))
            evolved = scipy.sparse.vstack(parts, format="csr")
        else:
            evolved = np.delete(matrix, removals, axis=0)
            if added:
                evolved = np.vstack([evolved, np.asarray(added)])
        new_system = LinearSystem(evolved, backend=self.backend_name)
        with obs.span("system_evolve"):
            obs.counter("system_evolve")
            fallback = (
                self._backend.seed_evolution(new_system._backend, removals, added)
                if self.backend_name == "sparse"
                else {"reason": "dense"}
            )
        new_system.evolved_incrementally = fallback is None
        if obs.is_enabled():
            obs.event(
                "system_evolve",
                rows_removed=len(removals),
                rows_added=len(added),
                paths=new_system.num_paths,
                links=new_system.num_links,
                incremental=fallback is None,
                backend=new_system.backend_name,
                **(fallback or {"reason": None}),
            )
        return new_system

    # -- basic shape ------------------------------------------------------

    @cached_property
    def matrix(self) -> np.ndarray:
        """The routing matrix ``R`` as a dense array (treat as read-only).

        A sparse system densifies its CSR on the first request, into the
        same array its backend's dense fallback factorizes, so it holds
        at most one dense copy of ``R`` and none until one is asked for.
        """
        if self._backend.name == "sparse":
            return self._backend._dense_fallback.matrix
        return self._backend.matrix

    @property
    def stored_matrix(self) -> np.ndarray | scipy.sparse.csr_matrix:
        """``R`` as the backend stores it, CSR or dense (read-only; never densifies)."""
        return self._backend.matrix

    def matches(self, matrix: np.ndarray) -> bool:
        """True when this system is built over the dense array ``matrix``.

        Exact, and compared in the stored form: a dense system runs
        ``np.array_equal``; a sparse one checks ``matrix`` at the CSR's
        positions and that it has no other nonzero, so it never builds
        an m x n array.  The identity check comes first: a dense
        scenario system holds its path set's own ``R``.
        """
        stored = self._backend.matrix
        if stored is matrix:
            return True
        if not scipy.sparse.issparse(stored):
            return np.array_equal(stored, matrix)
        dense = np.asarray(matrix)
        if dense.shape != stored.shape:
            return False
        if not stored.has_canonical_format:  # sum duplicate entries first
            stored = stored.copy()
            stored.sum_duplicates()
        rows = np.repeat(np.arange(stored.shape[0]), np.diff(stored.indptr))
        return bool(
            np.array_equal(dense[rows, stored.indices], stored.data)
            and np.count_nonzero(dense) == np.count_nonzero(stored.data)
        )

    @property
    def num_paths(self) -> int:
        """Number of measurement paths (rows of ``R``)."""
        return self._backend.matrix.shape[0]

    @property
    def num_links(self) -> int:
        """Number of links (columns of ``R``)."""
        return self._backend.matrix.shape[1]

    # -- rank structure ---------------------------------------------------

    @property
    def rank(self) -> int:
        """Numerical rank of ``R`` under the shared cutoff."""
        return self._factorized.rank

    @property
    def redundancy(self) -> int:
        """``|P| - rank`` — consistency rows available to the detector."""
        return self.num_paths - self.rank

    @property
    def is_full_column_rank(self) -> bool:
        """True when every link metric is identifiable (eq. 2 well posed)."""
        return self.rank == self.num_links

    # -- derived operators (dense; assembled once, cached) ----------------

    @property
    def estimator(self) -> np.ndarray:
        """``R⁺`` — the measurement-to-estimate operator (|L| x |P|).

        Dense by construction; under the sparse backend prefer
        :meth:`estimate`/:meth:`estimator_columns`, which never build it.
        """
        return self._factorized.estimator

    @property
    def residual_projector(self) -> np.ndarray:
        """``I - R R⁺`` (|P| x |P|) — its kernel is the eq. (23) detector's
        blind set, and ``-(I - R R⁺) y`` is the residual ``R x_hat - y``."""
        return self._factorized.residual_projector

    @property
    def nullspace(self) -> np.ndarray:
        """Orthonormal right-nullspace basis as columns (|L| x (|L|-rank))."""
        return self._factorized.nullspace

    def estimator_columns(self, cols: np.ndarray) -> np.ndarray:
        """Columns ``R⁺[:, cols]`` (|L| x k) without forming all of ``R⁺``.

        The dense backend slices its cached estimator; the sparse backend
        solves one batched system over the corresponding identity columns.
        Attack planners that only touch the support columns (Constraint 1)
        should prefer this over :attr:`estimator`.
        """
        return self._factorized.estimator_columns(np.asarray(cols, dtype=int))

    def residual_projector_columns(self, cols: np.ndarray) -> np.ndarray:
        """Columns ``(I - R R⁺)[:, cols]`` (|P| x k), matrix-free when sparse."""
        return self._factorized.residual_projector_columns(
            np.asarray(cols, dtype=int)
        )

    # -- operations -------------------------------------------------------
    #
    # Each operation takes a vector or a column block and makes one
    # backend call: a vector meets a 1-D right-hand side, a (rows, k)
    # block one multi-RHS solve (a single GEMM on the dense backend, one
    # batched Gram solve on the sparse one).

    def _operand(self, values: np.ndarray, noun: str = "measurement") -> np.ndarray:
        """``values`` as a finite float vector ``(rows,)`` or block ``(rows, k)``.

        Measurements have a row per path, metrics (``noun="metric"``) a
        row per link.
        """
        rows = self.num_links if noun == "metric" else self.num_paths
        arr = np.asarray(values, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[0] != rows:
            raise ValidationError(
                f"expected a ({rows},) {noun} vector or a ({rows}, k) {noun} "
                f"block, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{noun} values must be finite")
        return arr

    def estimate(self, observed: np.ndarray) -> np.ndarray:
        """Least-squares estimate ``x_hat = R⁺ y`` (eq. 2), column-wise."""
        return self._factorized.estimate(self._operand(observed))

    def regularized_estimate(self, observed: np.ndarray, lam: float) -> np.ndarray:
        """Tikhonov estimate ``(R^T R + lam I)^{-1} R^T y`` (``lam > 0``).

        The backend seam for ridge / Bayesian-MAP estimators: the dense
        backend assembles the regularized operator from the shared SVD
        factors, the sparse backend runs a Cholesky of the shifted
        small-side Gram — neither opens a second factorisation path.
        """
        if not (lam > 0) or not np.isfinite(lam):
            raise ValidationError(
                f"regularization lam must be positive and finite, got {lam}"
            )
        y = self._operand(observed)
        return self._factorized.regularized_estimate(y, float(lam))

    def predict(self, metrics: np.ndarray) -> np.ndarray:
        """Forward model ``y = R x`` (eq. 1), column-wise."""
        return self._factorized.predict(self._operand(metrics, "metric"))
