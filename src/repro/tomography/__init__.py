"""Network tomography: inverting ``y = R x`` into link-metric estimates.

- :mod:`~repro.tomography.linear_system` — :class:`LinearSystem`, the one
  reader of ``R``'s rank, ``R⁺``, residual projector and nullspace, over
  the dense and sparse kernels of :mod:`~repro.tomography.backends`;
- :mod:`~repro.tomography.estimator_zoo` — the estimator families, by
  name: ``ls`` (the paper's least squares, eq. 2, the default) /
  ``bayes-map`` / ``ridge`` / ``nnls`` / ``l1``;
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
from repro.tomography.linear_system import LinearSystem

__all__ = [
    "Estimator",
    "calibrated_alpha",
    "estimator_names",
    "resolve_estimator",
    "LinearSystem",
    "DiagnosisReport",
    "diagnose",
]
