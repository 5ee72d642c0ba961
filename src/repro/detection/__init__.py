"""Scapegoating detection (Section IV-B of the paper).

The detector re-checks the measurement model: estimate ``x_hat`` from the
observed ``y'`` and test whether ``R x_hat`` reproduces ``y'``.  Honest
(noiseless) measurements always lie in the column space of ``R``;
manipulations that are *not* expressible as a link-metric change leave an
``L_1`` residual that the detector thresholds (eq. 23 / Remark 4).
Theorem 3 fixes the blind spots: perfect cuts and square routing matrices.

- :class:`~repro.detection.consistency.ConsistencyDetector` — the paper's
  detector with threshold ``alpha`` (experiments: 200 ms);
- :mod:`~repro.detection.localization` — which paths witness the
  inconsistency (an extension beyond the paper: the witness rows are
  exactly the attacker-free victim paths, narrowing the search);
- :class:`~repro.detection.auditor.TomographyAuditor` — estimate +
  diagnose + detect in one operator-facing call;
- :class:`~repro.detection.online.OnlineConsistencyDetector` — the same
  detector over an *evolving* system: it can ``advance`` the system
  through per-epoch path churn, which patches the shared factorization
  instead of rebuilding detector state.
"""

from repro.detection.auditor import AuditReport, TomographyAuditor
from repro.detection.consistency import ConsistencyDetector, DetectionResult
from repro.detection.localization import suspicious_paths, witness_report
from repro.detection.online import OnlineConsistencyDetector
from repro.detection.robust import RobustEstimate, TrimmedLeastSquares

__all__ = [
    "ConsistencyDetector",
    "DetectionResult",
    "OnlineConsistencyDetector",
    "RobustEstimate",
    "TrimmedLeastSquares",
    "suspicious_paths",
    "witness_report",
    "AuditReport",
    "TomographyAuditor",
]
