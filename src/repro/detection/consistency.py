"""The consistency detector of eq. (23) / Remark 4.

Declare scapegoating when ``||R x_hat - y'||_1 > alpha``.  With noiseless
measurements any positive residual is suspicious; ``alpha`` absorbs real
measurement randomness (the paper sets 200 ms empirically; the detection
benches sweep it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DetectionError
from repro.tomography.estimator_zoo import resolve_estimator
from repro.tomography.linear_system import LinearSystem

__all__ = ["DetectionResult", "ConsistencyDetector"]


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one detector invocation.

    ``residual_l1`` is the statistic; ``detected`` the verdict;
    ``per_path_residual`` the vector whose support localises witnesses.
    """

    detected: bool
    residual_l1: float
    threshold: float
    per_path_residual: np.ndarray
    estimate: np.ndarray

    def max_path_residual(self) -> float:
        """Largest single-path inconsistency (localisation headline)."""
        if self.per_path_residual.size == 0:
            return 0.0
        return float(np.max(np.abs(self.per_path_residual)))


class ConsistencyDetector:
    """Residual-thresholding detector over a fixed routing matrix.

    Parameters
    ----------
    routing_matrix:
        The operator's ``R``.
    alpha:
        Detection threshold on the ``L_1`` residual (paper experiments:
        200 ms).  Must be non-negative; zero implements the idealised
        noiseless test of eq. (23).
    estimator:
        Which inversion the defender runs before thresholding: a zoo
        name (``"ls"`` / ``"bayes-map"`` / ...), an already-built
        :class:`~repro.tomography.estimator_zoo.Estimator` over the same
        system, or None to resolve the ``REPRO_ESTIMATOR`` knob.  The
        default (``ls``) reproduces eq. (23) bit-identically; biased
        families need :func:`~repro.tomography.estimator_zoo.calibrated_alpha`
        to keep ``alpha`` meaning "manipulation evidence".

    Note the structural blind spots (Theorem 3): if ``R`` is square and
    invertible the residual is *identically zero* whatever the attacker
    does — the detector warns about this at construction via
    :attr:`structurally_blind`.
    """

    def __init__(
        self,
        routing_matrix: np.ndarray,
        alpha: float = 200.0,
        *,
        system: LinearSystem | None = None,
        estimator=None,
    ) -> None:
        matrix = np.asarray(routing_matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise DetectionError(f"degenerate routing matrix shape {matrix.shape}")
        if alpha < 0:
            raise DetectionError(f"alpha must be non-negative, got {alpha}")
        self._matrix = matrix
        # One shared factorisation serves both the estimator operator and
        # the rank query below (previously an independent matrix_rank).
        # Callers running many detectors over one path set (scenarios)
        # inject the already-factorised kernel instead.
        if system is not None:
            if not system.matches(matrix):
                raise DetectionError(
                    "injected LinearSystem does not match the routing matrix"
                )
            self._system = system
        else:
            self._system = LinearSystem(matrix)
        self.alpha = float(alpha)
        if estimator is None or isinstance(estimator, str):
            self.estimator = resolve_estimator(estimator, system=self._system)
        else:
            est_system = getattr(estimator, "system", None)
            if est_system is None or not est_system.matches(matrix):
                raise DetectionError(
                    "injected estimator is not built over this routing matrix"
                )
            self.estimator = estimator
        # Residuals vanish identically iff rows span no redundancy: every
        # y' is consistent with some x.  That is rank == num_paths (which
        # includes the square invertible case of Theorem 3).
        self.structurally_blind = bool(self._system.rank == matrix.shape[0])

    @property
    def routing_matrix(self) -> np.ndarray:
        """A copy of ``R``."""
        return self._matrix.copy()

    def check(self, observed: np.ndarray) -> DetectionResult:
        """Run the detector on one observed measurement vector.

        The estimate comes from the shared kernel (matrix-free under the
        sparse backend); the residual is one product with the detector's
        dense ``R``, as in :meth:`check_batch`.
        """
        y = np.asarray(observed, dtype=float)
        if y.shape != (self._matrix.shape[0],):
            raise DetectionError(
                f"observed vector must have shape ({self._matrix.shape[0]},), got {y.shape}"
            )
        if not np.all(np.isfinite(y)):
            raise DetectionError("observed measurements must be finite")
        estimate = self.estimator.estimate(y)
        residual = self._matrix @ estimate - y
        residual_l1 = float(np.abs(residual).sum())
        return DetectionResult(
            detected=bool(residual_l1 > self.alpha),
            residual_l1=residual_l1,
            threshold=self.alpha,
            per_path_residual=residual,
            estimate=estimate,
        )

    def check_batch(self, observed_block: np.ndarray) -> list[DetectionResult]:
        """Run the detector on a block of measurement vectors (|P| x k).

        One multi-RHS kernel call covers the whole block — a single GEMM
        on the dense backend, one batched Gram solve on the sparse one —
        so Monte-Carlo chunks pay one solve instead of ``k``.  Verdicts
        are identical to ``k`` independent :meth:`check` calls.
        """
        block = np.asarray(observed_block, dtype=float)
        if block.ndim != 2 or block.shape[0] != self._matrix.shape[0]:
            raise DetectionError(
                f"observed block must have shape ({self._matrix.shape[0]}, k), "
                f"got {block.shape}"
            )
        if not np.all(np.isfinite(block)):
            raise DetectionError("observed measurements must be finite")
        estimates = self.estimator.estimate(block)
        residuals = self._matrix @ estimates - block
        residual_l1 = np.abs(residuals).sum(axis=0)
        return [
            DetectionResult(
                detected=bool(residual_l1[j] > self.alpha),
                residual_l1=float(residual_l1[j]),
                threshold=self.alpha,
                per_path_residual=residuals[:, j],
                estimate=estimates[:, j],
            )
            for j in range(block.shape[1])
        ]
