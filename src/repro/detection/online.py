"""Streaming consistency detection over an evolving measurement system.

The batch :class:`~repro.detection.consistency.ConsistencyDetector` is
built once over a fixed ``R`` and validates an injected system against it
(:meth:`~repro.tomography.linear_system.LinearSystem.matches`) — the
right contract for one-shot audits, and exactly the wrong one for a
measurement stream where paths fail and recover every epoch.
:class:`OnlineConsistencyDetector` instead *owns* an evolving
:class:`~repro.tomography.linear_system.LinearSystem`:

- :meth:`advance` applies one epoch of path churn through
  :meth:`LinearSystem.evolve`: on the sparse backend the Gram Cholesky
  factor is patched by rank-1 update/downdate instead of recomputed
  (with a certified cold fallback — correctness never rides on the fast
  path), while a dense system refactorizes cold on its first check;
- :meth:`check` thresholds ``||R x_hat - y'||_1`` (eq. 23 / Remark 4)
  against the *current* system, matrix-free: one estimate plus one
  forward predict, never a dense residual projector.

Each check emits an ``online_check`` obs event tagged with the epoch, so
run logs reconstruct the detection trajectory of a whole campaign.
"""

from __future__ import annotations

import numpy as np

from repro.detection.consistency import DetectionResult
from repro.exceptions import DetectionError
from repro.obs import core as obs
from repro.tomography.estimator_zoo import resolve_estimator
from repro.tomography.linear_system import LinearSystem

__all__ = ["OnlineConsistencyDetector"]


class OnlineConsistencyDetector:
    """Residual-thresholding detector that tracks an evolving ``R``.

    Parameters
    ----------
    system:
        The initial measurement system — a built
        :class:`~repro.tomography.linear_system.LinearSystem` or a raw
        routing matrix (dense or scipy-sparse) to wrap.
    alpha:
        Detection threshold on the ``L_1`` residual (paper experiments:
        200 ms); non-negative.
    estimator:
        Zoo *name* for the defender's inversion (``"ls"``, ``"bayes-map"``,
        ...) or None for least squares (``ls``).  Only names are
        accepted — the estimator must be re-resolved over every evolved
        system, so a pre-built instance (pinned to one system) cannot
        follow the stream.
    estimator_params:
        Keyword parameters forwarded to the zoo on every re-resolution.
    """

    def __init__(
        self,
        system,
        alpha: float = 200.0,
        *,
        estimator: str | None = None,
        estimator_params: dict | None = None,
    ) -> None:
        if alpha < 0:
            raise DetectionError(f"alpha must be non-negative, got {alpha}")
        if estimator is not None and not isinstance(estimator, str):
            raise DetectionError(
                "online detection re-resolves the estimator per epoch; "
                "pass a zoo name, not a built instance"
            )
        self._system = (
            system if isinstance(system, LinearSystem) else LinearSystem(system)
        )
        if self._system.num_paths == 0 or self._system.num_links == 0:
            raise DetectionError(
                f"degenerate routing matrix shape "
                f"({self._system.num_paths}, {self._system.num_links})"
            )
        self.alpha = float(alpha)
        self._estimator_name = estimator
        self._estimator_params = dict(estimator_params or {})
        self._estimator = resolve_estimator(
            estimator, system=self._system, **self._estimator_params
        )
        self.epoch = 0
        self.checks = 0

    # -- current state -----------------------------------------------------

    @property
    def system(self) -> LinearSystem:
        """The measurement system the next :meth:`check` runs against."""
        return self._system

    @property
    def estimator(self):
        """The defender's inversion over the current system."""
        return self._estimator

    @property
    def structurally_blind(self) -> bool:
        """True when the current ``R`` leaves no consistency residual.

        Identifiability shifts as the ensemble churns (rank == num_paths
        can come and go with path failures), so unlike the batch
        detector this is a live property, not a construction-time flag.
        """
        return bool(self._system.rank == self._system.num_paths)

    # -- evolution ---------------------------------------------------------

    def advance(
        self,
        *,
        add_rows: tuple | list = (),
        remove_indices: tuple | list = (),
    ) -> LinearSystem:
        """Apply one epoch of path churn; returns the evolved system.

        ``remove_indices`` refer to rows of the *current* system.  The
        evolved system keeps this detector's estimator family (re-resolved
        over the evolved system) and becomes the target of subsequent
        :meth:`check` calls.  A no-op epoch (no churn) still counts — the
        epoch index tracks stream time, not matrix versions.  Churn that
        would remove every path raises :class:`DetectionError` and leaves
        the detector exactly as it was.
        """
        if add_rows or remove_indices:
            system = self._system.evolve(
                add_rows=add_rows, remove_indices=remove_indices
            )
            if system.num_paths == 0:
                raise DetectionError("churn removed every measurement path")
            self._estimator = resolve_estimator(
                self._estimator_name, system=system, **self._estimator_params
            )
            self._system = system
        self.epoch += 1
        return self._system

    # -- detection ---------------------------------------------------------

    def check(self, observed: np.ndarray) -> DetectionResult:
        """Threshold one epoch's measurement vector against the live system.

        Matrix-free on the sparse backend: one estimator solve plus one
        forward ``predict`` — the dense matrix and projectors are never
        touched.
        """
        y = np.asarray(observed, dtype=float)
        if y.shape != (self._system.num_paths,):
            raise DetectionError(
                f"observed vector must have shape ({self._system.num_paths},), "
                f"got {y.shape}"
            )
        if not np.all(np.isfinite(y)):
            raise DetectionError("observed measurements must be finite")
        obs.counter("online_check")
        estimate = self._estimator.estimate(y)
        residual = self._system.predict(estimate) - y
        residual_l1 = float(np.abs(residual).sum())
        detected = bool(residual_l1 > self.alpha)
        self.checks += 1
        if obs.is_enabled():
            obs.event(
                "online_check",
                epoch=self.epoch,
                paths=self._system.num_paths,
                residual_l1=residual_l1,
                detected=detected,
                alpha=self.alpha,
            )
        return DetectionResult(
            detected=detected,
            residual_l1=residual_l1,
            threshold=self.alpha,
            per_path_residual=residual,
            estimate=estimate,
        )
