"""Network tomography: inverting ``y = R x`` into link-metric estimates.

- :mod:`~repro.tomography.linear_system` — residuals, consistency, and the
  estimator operator ``R⁺``;
- :mod:`~repro.tomography.estimator_zoo` — the registry-dispatched estimator
  families behind the ``REPRO_ESTIMATOR`` knob: ``ls`` (the paper's least
  squares, eq. 2) / ``bayes-map`` / ``ridge`` / ``nnls`` / ``l1``;
- :mod:`~repro.tomography.diagnosis` — turn an estimate into the link-state
  report a network operator would act on.
"""

from repro.tomography.diagnosis import DiagnosisReport, diagnose
from repro.tomography.estimator_zoo import (
    Estimator,
    calibrated_alpha,
    estimator_names,
    resolve_estimator,
)
from repro.tomography.linear_system import (
    LinearSystem,
    estimator_operator,
    measurement_residual,
    residual_l1_norm,
)

__all__ = [
    "Estimator",
    "calibrated_alpha",
    "estimator_names",
    "resolve_estimator",
    "LinearSystem",
    "estimator_operator",
    "measurement_residual",
    "residual_l1_norm",
    "DiagnosisReport",
    "diagnose",
]
