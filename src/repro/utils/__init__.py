"""Shared utilities: RNG handling, linear algebra, validation helpers."""

from repro.utils.linalg import (
    column_rank,
    nullspace,
    projector_onto_column_space,
)
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
    "column_rank",
    "nullspace",
    "projector_onto_column_space",
    "check_finite_vector",
    "check_nonnegative_vector",
    "check_probability",
    "check_positive",
]
