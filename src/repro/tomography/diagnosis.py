"""Operator-facing diagnosis: estimates -> link states -> verdicts.

The end product of network tomography in the paper's setting is a list of
links flagged abnormal (candidates for failure recovery).  Scapegoating is
precisely an attack on this report: it makes the report finger innocent
links.  :func:`diagnose` packages the estimate, per-link states, and the
flagged sets so experiments can compare reports with and without attacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.contracts import check_band_bounds, contract
from repro.metrics.states import LinkState, StateThresholds, state_codes

__all__ = ["DiagnosisReport", "diagnose"]


@dataclass(frozen=True)
class DiagnosisReport:
    """What the operator concludes from one tomography round.

    Attributes
    ----------
    estimate:
        The estimated link-metric vector ``x_hat``.
    states:
        Per-link :class:`LinkState`, indexed by link index.
    abnormal, uncertain, normal:
        Link indices in each state (tuples, ascending).
    thresholds:
        The classification bounds used.
    """

    estimate: np.ndarray
    states: tuple[LinkState, ...]
    abnormal: tuple[int, ...]
    uncertain: tuple[int, ...]
    normal: tuple[int, ...]
    thresholds: StateThresholds

    def state_of(self, link_index: int) -> LinkState:
        """State of one link."""
        return self.states[link_index]

    def blames(self, link_indices) -> bool:
        """True when *every* given link is flagged abnormal.

        A chosen-victim scapegoating attack succeeded from the operator's
        perspective exactly when the report blames the victim set.
        """
        flagged = set(self.abnormal)
        indices = list(link_indices)
        return bool(indices) and all(index in flagged for index in indices)

    def summary(self) -> dict:
        """Counts per state plus the extreme estimates (for logs)."""
        return {
            "num_links": len(self.states),
            "abnormal": len(self.abnormal),
            "uncertain": len(self.uncertain),
            "normal": len(self.normal),
            "max_estimate": float(np.max(self.estimate)) if self.estimate.size else 0.0,
            "min_estimate": float(np.min(self.estimate)) if self.estimate.size else 0.0,
        }


@contract(thresholds=check_band_bounds)
def diagnose(estimate: np.ndarray, thresholds: StateThresholds) -> DiagnosisReport:
    """Classify an estimated metric vector into a :class:`DiagnosisReport`."""
    values = np.asarray(estimate, dtype=float)
    codes = state_codes(values, thresholds)
    by_code = tuple(LinkState)
    normal, uncertain, abnormal = (
        tuple(np.flatnonzero(codes == code).tolist()) for code in range(3)
    )
    return DiagnosisReport(
        estimate=values.copy(),
        states=tuple(by_code[code] for code in codes.tolist()),
        abnormal=abnormal,
        uncertain=uncertain,
        normal=normal,
        thresholds=thresholds,
    )
