"""Tests for repro.utils.linalg."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.tomography.linear_system import LinearSystem
from repro.utils.linalg import (
    column_rank,
    nullspace,
    projector_onto_column_space,
)


class TestColumnRank:
    def test_identity(self):
        assert column_rank(np.eye(4)) == 4

    def test_duplicate_columns(self):
        mat = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert column_rank(mat) == 1

    def test_zero_matrix(self):
        assert column_rank(np.zeros((3, 3))) == 0

    def test_empty_matrix(self):
        assert column_rank(np.zeros((0, 3))) == 0

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            column_rank(np.zeros(3))

    def test_shares_the_kernel_cutoff(self):
        """A singular value below ``DEFAULT_RANK_TOL * max(m, n) * s_max``
        does not count, exactly as in ``LinearSystem.rank``."""
        mat = np.diag([1.0, 1.0, 1e-12])
        assert column_rank(mat) == LinearSystem(mat).rank == 2


class TestFullColumnRank:
    # The identifiability test now exists only as
    # ``LinearSystem.is_full_column_rank``, under the kernel's cutoff.
    def test_tall_full_rank(self):
        mat = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert LinearSystem(mat).is_full_column_rank

    def test_wide_matrix_never_full(self):
        assert not LinearSystem(np.ones((2, 3))).is_full_column_rank

    def test_no_columns_vacuously_true(self):
        assert LinearSystem(np.zeros((3, 0))).is_full_column_rank


class TestPinv:
    # ``least_squares_pinv`` collapsed into the shared kernel: the
    # pseudo-inverse now only exists as ``LinearSystem.estimator``.
    def test_matches_normal_equations_on_full_rank(self):
        rng = np.random.default_rng(0)
        mat = rng.random((6, 3))
        expected = np.linalg.inv(mat.T @ mat) @ mat.T
        assert np.allclose(LinearSystem(mat).estimator, expected)

    def test_pinv_recovers_exact_solution(self):
        rng = np.random.default_rng(1)
        mat = (rng.random((8, 4)) < 0.5).astype(float) + np.eye(8, 4)
        x = rng.random(4)
        assert np.allclose(LinearSystem(mat).estimator @ (mat @ x), x)


class TestNullspace:
    def test_full_rank_has_empty_nullspace(self):
        assert nullspace(np.eye(3)).shape == (3, 0)

    def test_nullspace_annihilated(self):
        mat = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        basis = nullspace(mat)
        assert basis.shape == (3, 1)
        assert np.allclose(mat @ basis, 0.0)

    def test_basis_is_orthonormal(self):
        mat = np.array([[1.0, 1.0, 1.0]])
        basis = nullspace(mat)
        gram = basis.T @ basis
        assert np.allclose(gram, np.eye(basis.shape[1]))


class TestProjector:
    def test_projects_onto_column_space(self):
        rng = np.random.default_rng(2)
        mat = rng.random((5, 2))
        proj = projector_onto_column_space(mat)
        assert np.allclose(proj @ mat, mat)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        mat = rng.random((6, 3))
        proj = projector_onto_column_space(mat)
        assert np.allclose(proj @ proj, proj)

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        mat = rng.random((6, 3))
        proj = projector_onto_column_space(mat)
        assert np.allclose(proj, proj.T)


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.sampled_from([0.0, 1.0]),
    )
)
def test_rank_nullity_theorem(mat):
    """rank + nullity == number of columns, for 0/1 matrices."""
    rank = column_rank(mat)
    nullity = nullspace(mat).shape[1]
    assert rank + nullity == mat.shape[1]


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        # 0/1 entries: the library only projects routing matrices, and
        # near-singular real matrices make pinv orthogonality claims
        # numerically vacuous.
        elements=st.sampled_from([0.0, 1.0]),
    )
)
def test_projector_fixes_column_space_residual_orthogonal(mat):
    """(I - P) y is orthogonal to the column space for any 0/1 matrix."""
    proj = projector_onto_column_space(mat)
    rng = np.random.default_rng(0)
    y = rng.random(mat.shape[0])
    residual = y - proj @ y
    assert np.allclose(mat.T @ residual, 0.0, atol=1e-7)
