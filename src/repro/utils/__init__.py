"""Shared utilities: RNG handling, validation helpers, the HiGHS wrapper
and the rank-1 Cholesky update kernels.

Every quantity of a routing matrix (rank, ``R⁺``, projectors, nullspace)
comes from :class:`repro.tomography.linear_system.LinearSystem`, not from
here.
"""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_finite_vector,
    check_nonnegative_vector,
    check_positive,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "check_finite_vector",
    "check_nonnegative_vector",
    "check_probability",
    "check_positive",
]
