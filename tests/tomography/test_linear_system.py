"""Tests for the measurement system ``y = R x``."""

import numpy as np
import pytest
import scipy.sparse

from repro.detection.consistency import ConsistencyDetector
from repro.exceptions import ReproError, ValidationError
from repro.tomography.linear_system import LinearSystem


def _rank_deficient_matrix() -> np.ndarray:
    """A 6x5 matrix of rank 3 with a clean singular-value gap."""
    rng = np.random.default_rng(7)
    left = rng.random((6, 3))
    right = rng.random((3, 5))
    return left @ right


def _wide_rank_deficient_matrix() -> np.ndarray:
    """A 4x7 (wide) matrix of rank 2."""
    rng = np.random.default_rng(11)
    return rng.random((4, 2)) @ rng.random((2, 7))


class TestLinearSystemParity:
    """The shared-SVD kernel must match the independent-factorisation
    results (old ``np.linalg.pinv`` / projector / nullspace paths)."""

    @pytest.fixture(params=["full_rank", "rank_deficient", "wide"])
    def matrix(self, request, fig1_scenario):
        if request.param == "full_rank":
            return fig1_scenario.path_set.routing_matrix()
        if request.param == "rank_deficient":
            return _rank_deficient_matrix()
        return _wide_rank_deficient_matrix()

    def test_estimator_matches_numpy_pinv(self, matrix):
        system = LinearSystem(matrix)
        assert np.allclose(system.estimator, np.linalg.pinv(matrix), atol=1e-12)  # repro: noqa RP001 (reference)

    def test_column_space_projector_matches_pinv_product(self, matrix):
        system = LinearSystem(matrix)
        reference = matrix @ np.linalg.pinv(matrix)  # repro: noqa RP001 (reference)
        projector = np.eye(matrix.shape[0]) - system.residual_projector
        assert np.allclose(projector, reference, atol=1e-12)

    def test_residual_projector_matches_identity_minus_product(self, matrix):
        system = LinearSystem(matrix)
        reference = np.eye(matrix.shape[0]) - matrix @ np.linalg.pinv(matrix)  # repro: noqa RP001 (reference)
        assert np.allclose(system.residual_projector, reference, atol=1e-12)

    def test_nullspace_spans_kernel(self, matrix):
        system = LinearSystem(matrix)
        basis = system.nullspace
        assert basis.shape == (matrix.shape[1], matrix.shape[1] - system.rank)
        assert np.allclose(matrix @ basis, 0.0, atol=1e-10)
        # Orthonormal columns.
        assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)

    def test_rank_matches_numpy(self, matrix):
        assert LinearSystem(matrix).rank == np.linalg.matrix_rank(matrix)  # repro: noqa RP001 (reference)


class TestLinearSystem:
    def test_shape_and_redundancy(self, fig1_scenario):
        system = LinearSystem(fig1_scenario.path_set.routing_matrix())
        assert (system.num_paths, system.num_links) == (23, 10)
        assert system.rank == 10
        assert system.redundancy == 13
        assert system.is_full_column_rank

    def test_estimate_predict_roundtrip(self, fig1_scenario):
        system = LinearSystem(fig1_scenario.path_set.routing_matrix())
        x = fig1_scenario.true_metrics
        assert np.allclose(system.estimate(system.predict(x)), x)

    def test_residual_matches_explicit_computation(self, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        system = LinearSystem(matrix)
        rng = np.random.default_rng(3)
        y = rng.random(matrix.shape[0]) * 100
        explicit = matrix @ system.estimate(y) - y
        # Eq. (23)'s residual R x_hat - y is -(I - R R⁺) y.
        assert np.allclose(-(system.residual_projector @ y), explicit, atol=1e-10)
        # The detector's statistic is its L1 norm (Remark 4).
        assert ConsistencyDetector(system).check(y).residual_l1 == pytest.approx(
            np.abs(explicit).sum()
        )

    def test_derived_operators_cached(self, fig1_scenario):
        system = LinearSystem(fig1_scenario.path_set.routing_matrix())
        assert system.estimator is system.estimator
        assert system.residual_projector is system.residual_projector

    def test_single_svd_shared_across_operators(self, fig1_scenario):
        from repro.obs import PerfRecorder, recording

        with recording(PerfRecorder()) as recorder:
            system = LinearSystem(fig1_scenario.path_set.routing_matrix())
            system.estimator
            system.residual_projector
            system.nullspace
            system.rank
        assert recorder.counters["svd"] == 1

    def test_non_2d_rejected(self):
        # A ValidationError: a ValueError that an ``except ReproError``
        # boundary also catches, around a detector too.
        with pytest.raises(ValidationError, match="2-D"):
            LinearSystem(np.ones(4))
        with pytest.raises(ReproError, match="2-D"):
            ConsistencyDetector(np.ones(3))

    def test_regularization_must_be_positive_and_finite(self):
        system = LinearSystem(np.eye(3))
        for lam in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValidationError, match="lam"):
                system.regularized_estimate(np.ones(3), lam)


class TestMatches:
    """``matches`` is exact, in the stored form, and never densifies."""

    @pytest.fixture(params=["dense", "sparse"])
    def built(self, request, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        return matrix, LinearSystem(matrix, backend=request.param)

    def test_the_matrix_itself_and_an_equal_copy(self, built):
        matrix, system = built
        assert system.matches(matrix)
        assert system.matches(system.stored_matrix)
        assert system.matches(matrix.copy())
        assert system.matches(matrix.astype(np.float32))
        assert "matrix" not in vars(system)

    def test_one_flipped_entry(self, built):
        matrix, system = built
        for i, j in (np.argwhere(matrix == 1.0)[0], np.argwhere(matrix == 0.0)[-1]):
            flipped = matrix.copy()
            flipped[i, j] = 1.0 - flipped[i, j]
            assert not system.matches(flipped)
        assert "matrix" not in vars(system)

    def test_shape_mismatch(self, built):
        matrix, system = built
        for other in (matrix[:-1], matrix[:, :-1], matrix.T, matrix.ravel()):
            assert not system.matches(other)

    def test_csr_holding_an_explicit_zero(self):
        stored = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        csr = scipy.sparse.csr_matrix(stored)
        csr.data[0] = 0.0  # (0, 0) stays a stored position, now holding 0
        stored[0, 0] = 0.0
        system = LinearSystem(csr, backend="sparse")
        assert system.stored_matrix.nnz == 3
        assert system.matches(stored)
        for i, j in ((0, 0), (1, 0)):  # at the explicit zero, and off the pattern
            other = stored.copy()
            other[i, j] = 1.0
            assert not system.matches(other)
        assert "matrix" not in vars(system)

    def test_csr_holding_duplicate_entries(self):
        # (0, 1) is stored twice; the entries sum, as in every scipy product.
        csr = scipy.sparse.csr_matrix(
            (np.array([0.5, 0.5, 1.0]), np.array([1, 1, 0]), np.array([0, 2, 3])),
            shape=(2, 2),
        )
        system = LinearSystem(csr, backend="sparse")
        assert system.matches(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not system.matches(np.array([[0.0, 0.5], [1.0, 0.0]]))
        assert system.stored_matrix.nnz == 3  # the stored form is left as it was


class TestEstimatorOperator:
    """``LinearSystem.estimator`` is ``R⁺`` (|L| x |P|)."""

    def test_left_inverse_on_full_rank(self, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        op = LinearSystem(matrix).estimator
        assert np.allclose(op @ matrix, np.eye(matrix.shape[1]))

    def test_shape(self, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        assert LinearSystem(matrix).estimator.shape == (matrix.shape[1], matrix.shape[0])

    def test_binary_matrix_accepted(self):
        matrix = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert LinearSystem(matrix).estimator.shape == (3, 2)


def _residual(system: LinearSystem, observed: np.ndarray) -> np.ndarray:
    """The eq. (23) residual ``R x_hat - y``, as the detectors form it."""
    return system.predict(system.estimate(observed)) - observed


class TestResidual:
    def test_consistent_measurements_have_zero_residual(self, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        x = fig1_scenario.true_metrics
        y = matrix @ x
        assert np.abs(_residual(LinearSystem(matrix), y)).sum() < 1e-8

    def test_inconsistent_measurement_detected_per_path(self, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        x = fig1_scenario.true_metrics
        y = matrix @ x
        y_tampered = y.copy()
        y_tampered[0] += 500.0
        residual = _residual(LinearSystem(matrix), y_tampered)
        assert np.abs(residual).sum() > 1.0

    def test_residual_orthogonal_to_column_space(self, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        rng = np.random.default_rng(2)
        y = rng.random(matrix.shape[0]) * 100
        residual = _residual(LinearSystem(matrix), y)
        assert np.allclose(matrix.T @ residual, 0.0, atol=1e-7)

    def test_length_validation(self, fig1_scenario):
        system = LinearSystem(fig1_scenario.path_set.routing_matrix())
        with pytest.raises(ValidationError, match="metric"):
            system.predict(np.ones(3))
        with pytest.raises(ValidationError, match="measurement"):
            system.estimate(np.ones(3))
