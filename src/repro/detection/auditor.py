"""Operator-facing audit: tomography + diagnosis + manipulation check.

The paper argues the consistency check "should follow immediately the
network tomography process" (Section VII-3).  :class:`TomographyAuditor`
packages that pipeline: given observed measurements it estimates link
metrics, classifies link states, runs the consistency detector, and — when
the detector fires — attaches the witness localisation, flagging the
diagnosis as untrustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.consistency import ConsistencyDetector, DetectionResult
from repro.detection.localization import witness_report
from repro.exceptions import DetectionError
from repro.metrics.states import StateThresholds
from repro.routing.paths import PathSet
from repro.tomography.diagnosis import DiagnosisReport, diagnose

__all__ = ["AuditReport", "TomographyAuditor"]


@dataclass(frozen=True)
class AuditReport:
    """Joint result of one audited tomography round.

    ``trustworthy`` is the headline: when False, the diagnosis must not
    drive recovery actions (its abnormal set may be a scapegoat).
    """

    diagnosis: DiagnosisReport
    detection: DetectionResult
    witnesses: dict | None

    @property
    def trustworthy(self) -> bool:
        """True when the consistency check passed."""
        return not self.detection.detected

    def summary(self) -> dict:
        """Flat summary for experiment logs."""
        out = {
            "trustworthy": self.trustworthy,
            "residual_l1": self.detection.residual_l1,
            "abnormal_links": list(self.diagnosis.abnormal),
            "uncertain_links": list(self.diagnosis.uncertain),
        }
        if self.witnesses is not None:
            out["suspicious_paths"] = self.witnesses["suspicious_paths"]
            out["implicated_links"] = self.witnesses["implicated_links"]
        return out


class TomographyAuditor:
    """Estimate, classify, and verify one measurement round.

    Parameters
    ----------
    path_set:
        The measurement paths (fixes ``R``).
    thresholds:
        Link-state bounds for the diagnosis.
    alpha:
        Consistency-detector threshold (paper: 200 ms).
    system:
        Optional pre-factorised
        :class:`~repro.tomography.linear_system.LinearSystem` over the
        path set's routing matrix (checked with
        :meth:`~repro.tomography.linear_system.LinearSystem.matches`), on
        which the detector runs, so audits share the sweep engine's
        per-topology factorisation.  None wraps the path set's ``R``.
    estimator:
        Inversion family the audited operator runs — a zoo name, an
        estimator built over ``system``, or None for least squares
        (``ls``).  Forwarded to the detector; the diagnosis is
        computed from the same estimate the detector thresholds.
    """

    def __init__(
        self,
        path_set: PathSet,
        *,
        thresholds: StateThresholds | None = None,
        alpha: float = 200.0,
        system=None,
        estimator=None,
    ) -> None:
        self.path_set = path_set
        self.thresholds = thresholds if thresholds is not None else StateThresholds()
        matrix = path_set.routing_matrix()
        if system is None:
            system = matrix
        elif not system.matches(matrix):
            raise DetectionError(
                "injected LinearSystem does not match the path set's routing matrix"
            )
        self.detector = ConsistencyDetector(system, alpha=alpha, estimator=estimator)

    def audit(self, observed: np.ndarray) -> AuditReport:
        """Run the full pipeline on one observed measurement vector."""
        detection = self.detector.check(observed)
        diagnosis = diagnose(detection.estimate, self.thresholds)
        witnesses = (
            witness_report(self.path_set, detection) if detection.detected else None
        )
        return AuditReport(diagnosis=diagnosis, detection=detection, witnesses=witnesses)
