"""Network tomography: inverting ``y = R x`` into link-metric estimates.

- :mod:`~repro.tomography.linear_system` — residuals, consistency, and the
  estimator operator ``R⁺``;
- :mod:`~repro.tomography.estimators` — the paper's least-squares estimator
  (eq. 2) with a rank check;
- :mod:`~repro.tomography.estimator_zoo` — the registry-dispatched estimator
  families (``ls`` / ``bayes-map`` / ``ridge`` / ``nnls`` / ``l1``) behind
  the ``REPRO_ESTIMATOR`` knob;
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
from repro.tomography.estimators import LeastSquaresEstimator
from repro.tomography.linear_system import (
    LinearSystem,
    estimator_operator,
    measurement_residual,
    residual_l1_norm,
)

__all__ = [
    "Estimator",
    "LeastSquaresEstimator",
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
