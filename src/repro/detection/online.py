"""Streaming consistency detection over an evolving measurement system.

:class:`OnlineConsistencyDetector` is the
:class:`~repro.detection.consistency.ConsistencyDetector` of eq. (23) /
Remark 4 over a stream where paths fail and recover every epoch.
:meth:`~OnlineConsistencyDetector.advance` applies one epoch of churn
through :meth:`~repro.tomography.linear_system.LinearSystem.evolve` (on
the sparse backend a rank-1 patch of the Gram Cholesky factor, with a
certified cold fallback), and every check runs the inherited verdict
path against the *current* system.  Each check emits an ``online_check``
obs event tagged with the epoch, so run logs reconstruct the detection
trajectory of a whole campaign.
"""

from __future__ import annotations

import numpy as np

from repro.detection.consistency import ConsistencyDetector, DetectionResult
from repro.exceptions import DetectionError
from repro.obs import core as obs
from repro.tomography.estimator_zoo import resolve_estimator
from repro.tomography.linear_system import LinearSystem

__all__ = ["OnlineConsistencyDetector"]


class OnlineConsistencyDetector(ConsistencyDetector):
    """A :class:`ConsistencyDetector` that tracks an evolving ``R``.

    Takes the same ``system`` and ``alpha``.  ``estimator`` must be a zoo
    *name* or None (least squares, ``ls``): the estimator is re-resolved
    over every evolved system, so a pre-built instance (pinned to one
    system) cannot follow the stream.
    """

    def __init__(
        self, system, alpha: float = 200.0, *, estimator: str | None = None
    ) -> None:
        if estimator is not None and not isinstance(estimator, str):
            raise DetectionError(
                "online detection re-resolves the estimator per epoch; "
                "pass a zoo name, not a built instance"
            )
        super().__init__(system, alpha, estimator=estimator)
        self.epoch = 0
        self.checks = 0

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
            system = self.system.evolve(add_rows=add_rows, remove_indices=remove_indices)
            if system.num_paths == 0:
                raise DetectionError("churn removed every measurement path")
            self.estimator = resolve_estimator(self.estimator.name, system=system)
            self.system = system
        self.epoch += 1
        return self.system

    def check(self, observed: np.ndarray) -> DetectionResult:
        """Threshold one epoch's measurement vector against the live system."""
        # The shared helper, not ``super().check``: perfbench traces both
        # classes' ``check``, and one online check must stay one traced call.
        result = self._verdicts(observed, ndim=1)[0]
        obs.counter("online_check")
        self.checks += 1
        if obs.is_enabled():
            obs.event(
                "online_check",
                epoch=self.epoch,
                paths=self.system.num_paths,
                residual_l1=result.residual_l1,
                detected=result.detected,
                alpha=self.alpha,
            )
        return result
