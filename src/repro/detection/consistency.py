"""The consistency detector of eq. (23) / Remark 4.

Declare scapegoating when ``||R x_hat - y'||_1 > alpha``.  With noiseless
measurements any positive residual is suspicious; ``alpha`` absorbs real
measurement randomness (the paper sets 200 ms empirically; the detection
benches sweep it).

The detector runs on the :class:`~repro.tomography.linear_system.LinearSystem`
it is handed and never copies ``R``: the residual is one estimate plus one
forward :meth:`~repro.tomography.linear_system.LinearSystem.predict`,
matrix-free on the sparse backend.
:class:`~repro.detection.online.OnlineConsistencyDetector` is this
detector over a system that churns.
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
    """Residual-thresholding detector over one measurement system.

    Parameters
    ----------
    system:
        The measurement system the detector runs on — a built
        :class:`~repro.tomography.linear_system.LinearSystem` or a routing
        matrix ``R`` (dense or scipy-sparse) to wrap.
    alpha:
        Detection threshold on the ``L_1`` residual (paper experiments:
        200 ms).  Must be non-negative; zero implements the idealised
        noiseless test of eq. (23).
    estimator:
        Which inversion the defender runs before thresholding: a zoo
        name (``"ls"`` / ``"bayes-map"`` / ...), an already-built
        :class:`~repro.tomography.estimator_zoo.Estimator` over this
        detector's own system, or None for least squares (``ls``), which
        reproduces eq. (23) bit-identically; biased families need
        :func:`~repro.tomography.estimator_zoo.calibrated_alpha` to keep
        ``alpha`` meaning "manipulation evidence".

    Note the structural blind spots (Theorem 3): if ``R`` has rank
    ``|P|`` (square and invertible among others) the residual is
    *identically zero* whatever the attacker does — see
    :attr:`structurally_blind`.
    """

    def __init__(self, system, alpha: float = 200.0, *, estimator=None) -> None:
        if alpha < 0:
            raise DetectionError(f"alpha must be non-negative, got {alpha}")
        self.system = system if isinstance(system, LinearSystem) else LinearSystem(system)
        if self.system.num_paths == 0 or self.system.num_links == 0:
            raise DetectionError(
                f"degenerate routing matrix shape "
                f"({self.system.num_paths}, {self.system.num_links})"
            )
        self.alpha = float(alpha)
        if estimator is None or isinstance(estimator, str):
            estimator = resolve_estimator(estimator, system=self.system)
        elif getattr(estimator, "system", None) is not self.system:
            raise DetectionError("injected estimator is not built over this detector's system")
        self.estimator = estimator

    @property
    def structurally_blind(self) -> bool:
        """True when the current ``R`` leaves no consistency residual.

        Residuals vanish identically iff the rows span no redundancy, so
        every ``y'`` is consistent with some ``x``: rank == ``|P|``.
        """
        return bool(self.system.rank == self.system.num_paths)

    def check(self, observed: np.ndarray) -> DetectionResult:
        """Run the detector on one observed measurement vector."""
        return self._verdicts(observed, ndim=1)[0]

    def check_batch(self, observed_block: np.ndarray) -> list[DetectionResult]:
        """Run the detector on a block of measurement vectors (|P| x k).

        One multi-RHS kernel call covers the whole block — a single GEMM
        on the dense backend, one batched Gram solve on the sparse one —
        so Monte-Carlo chunks pay one solve instead of ``k``.  Verdicts
        are identical to ``k`` independent :meth:`check` calls.
        """
        return self._verdicts(observed_block, ndim=2)

    def _verdicts(self, observed: np.ndarray, *, ndim: int) -> list[DetectionResult]:
        """Validate, estimate, form ``R x_hat - y`` and threshold its L1 norm.

        ``observed`` is one vector (``ndim=1``) or a block of columns
        (``ndim=2``); either takes one estimate and one predict, and a
        block yields one result per column.
        """
        y = np.asarray(observed, dtype=float)
        paths = self.system.num_paths
        if y.ndim != ndim or y.shape[0] != paths:
            expected = f"({paths},)" if ndim == 1 else f"({paths}, k)"
            raise DetectionError(
                f"observed measurements must have shape {expected}, got {y.shape}"
            )
        if not np.all(np.isfinite(y)):
            raise DetectionError("observed measurements must be finite")
        estimates = self.estimator.estimate(y)
        residuals = self.system.predict(estimates) - y
        residual_l1 = np.abs(residuals).sum(axis=0)
        columns = (
            zip(estimates.T, residuals.T, residual_l1)
            if ndim == 2
            else [(estimates, residuals, residual_l1)]
        )
        return [
            DetectionResult(
                detected=bool(l1 > self.alpha),
                residual_l1=float(l1),
                threshold=self.alpha,
                per_path_residual=residual,
                estimate=estimate,
            )
            for estimate, residual, l1 in columns
        ]
