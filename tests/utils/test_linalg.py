"""Rank, nullspace, pseudo-inverse and projector properties of R.

Every one of these quantities comes from
:class:`repro.tomography.linear_system.LinearSystem`; these are the
algebraic properties the rest of the library relies on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ValidationError
from repro.tomography.linear_system import LinearSystem


class TestColumnRank:
    def test_identity(self):
        assert LinearSystem(np.eye(4)).rank == 4

    def test_duplicate_columns(self):
        mat = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert LinearSystem(mat).rank == 1

    def test_zero_matrix(self):
        assert LinearSystem(np.zeros((3, 3))).rank == 0

    def test_empty_matrix(self):
        assert LinearSystem(np.zeros((0, 3))).rank == 0

    def test_rejects_non_2d(self):
        with pytest.raises(ValidationError):
            LinearSystem(np.zeros(3))

    def test_shares_the_kernel_cutoff(self):
        """A singular value below ``DEFAULT_RANK_TOL * max(m, n) * s_max``
        does not count, on either backend."""
        mat = np.diag([1.0, 1.0, 1e-12])
        ranks = {LinearSystem(mat, backend=b).rank for b in ("dense", "sparse")}
        assert ranks == {2}


class TestFullColumnRank:
    # The identifiability test: ``LinearSystem.is_full_column_rank``,
    # under the kernel's cutoff.
    def test_tall_full_rank(self):
        mat = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert LinearSystem(mat).is_full_column_rank

    def test_wide_matrix_never_full(self):
        assert not LinearSystem(np.ones((2, 3))).is_full_column_rank

    def test_no_columns_vacuously_true(self):
        assert LinearSystem(np.zeros((3, 0))).is_full_column_rank


class TestPinv:
    # The pseudo-inverse exists only as ``LinearSystem.estimator``.
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
        assert LinearSystem(np.eye(3)).nullspace.shape == (3, 0)

    def test_nullspace_annihilated(self):
        mat = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        basis = LinearSystem(mat).nullspace
        assert basis.shape == (3, 1)
        assert np.allclose(mat @ basis, 0.0)

    def test_basis_is_orthonormal(self):
        mat = np.array([[1.0, 1.0, 1.0]])
        basis = LinearSystem(mat).nullspace
        gram = basis.T @ basis
        assert np.allclose(gram, np.eye(basis.shape[1]))


class TestProjector:
    # ``I - R R⁺``: it annihilates the column space of R.
    def test_projects_onto_column_space(self):
        rng = np.random.default_rng(2)
        mat = rng.random((5, 2))
        assert np.allclose(LinearSystem(mat).residual_projector @ mat, 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        mat = rng.random((6, 3))
        proj = LinearSystem(mat).residual_projector
        assert np.allclose(proj @ proj, proj)

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        mat = rng.random((6, 3))
        proj = LinearSystem(mat).residual_projector
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
    system = LinearSystem(mat)
    assert system.rank + system.nullspace.shape[1] == mat.shape[1]


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
    rng = np.random.default_rng(0)
    y = rng.random(mat.shape[0])
    residual = LinearSystem(mat).residual_projector @ y
    assert np.allclose(mat.T @ residual, 0.0, atol=1e-7)
