"""The paper's least-squares link-metric estimator (eq. 2).

:class:`LeastSquaresEstimator` adds one guard to the shared kernel: it
refuses rank-deficient routing matrices unless told otherwise.  The
defensive alternatives a cautious operator might deploy — non-negative
least squares, ridge regularisation and the rest — are the families of
:mod:`repro.tomography.estimator_zoo`, built with
:func:`~repro.tomography.estimator_zoo.resolve_estimator`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SingularSystemError, TomographyError
from repro.tomography.linear_system import LinearSystem
from repro.utils.validation import check_finite_vector

__all__ = ["LeastSquaresEstimator"]


class LeastSquaresEstimator:
    """The least-squares inversion of eq. (2): ``x_hat = R⁺ y``.

    Parameters
    ----------
    routing_matrix:
        The 0/1 measurement matrix ``R``.
    require_full_rank:
        When True (default), refuse rank-deficient systems with
        :class:`SingularSystemError` instead of silently returning the
        minimum-norm solution — an operator should know when links are
        unidentifiable.  Pass False to opt into the pseudo-inverse
        behaviour.
    """

    def __init__(self, routing_matrix: np.ndarray, *, require_full_rank: bool = True) -> None:
        matrix = np.asarray(routing_matrix, dtype=float)
        if matrix.ndim != 2:
            raise TomographyError(f"routing matrix must be 2-D, got ndim={matrix.ndim}")
        if matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise TomographyError(f"degenerate routing matrix shape {matrix.shape}")
        system = LinearSystem(matrix)
        if require_full_rank and not system.is_full_column_rank:
            raise SingularSystemError(
                f"routing matrix with shape {matrix.shape} is rank-deficient; "
                "some link metrics are unidentifiable"
            )
        self._matrix = matrix
        self._system = system

    @property
    def routing_matrix(self) -> np.ndarray:
        """A copy of ``R``."""
        return self._matrix.copy()

    @property
    def operator(self) -> np.ndarray:
        """A copy of the estimator operator ``R⁺``."""
        return self._system.estimator.copy()

    def estimate(self, measurements: np.ndarray) -> np.ndarray:
        """Estimate the link-metric vector from path measurements."""
        y = check_finite_vector(measurements, "measurements", length=self._matrix.shape[0])
        return self._system.estimate(y)

