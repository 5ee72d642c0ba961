"""Tests for the zoo's least-squares, nnls and ridge families."""

import numpy as np
import pytest

from repro.exceptions import TomographyError, ValidationError
from repro.metrics.link_metrics import uniform_delay_metrics
from repro.tomography.estimator_zoo import resolve_estimator


def _ls(matrix):
    return resolve_estimator("ls", routing_matrix=matrix)


def _nnls(matrix):
    return resolve_estimator("nnls", routing_matrix=matrix)


def _ridge(matrix, lam):
    return resolve_estimator("ridge", routing_matrix=matrix, lam=lam)


class TestLeastSquares:
    def test_recovers_truth_on_fig1(self, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        estimator = _ls(matrix)
        x = fig1_scenario.true_metrics
        assert np.allclose(estimator.estimate(matrix @ x), x)

    def test_equals_normal_equations(self, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        estimator = _ls(matrix)
        expected = np.linalg.inv(matrix.T @ matrix) @ matrix.T
        assert np.allclose(estimator.system.estimator, expected)

    def test_rank_deficient_gives_minimum_norm(self):
        mat = np.array([[1.0, 1.0]])
        estimator = _ls(mat)
        assert not estimator.system.is_full_column_rank
        # Minimum-norm solution splits the sum evenly.
        assert np.allclose(estimator.estimate(np.array([4.0])), [2.0, 2.0])

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(TomographyError):
            _ls(np.zeros((0, 3)))
        with pytest.raises(ValueError, match="2-D"):
            _ls(np.zeros(4))

    def test_measurement_length_checked(self, fig1_scenario):
        estimator = _ls(fig1_scenario.path_set.routing_matrix())
        with pytest.raises(ValidationError):
            estimator.estimate(np.ones(3))


class TestNonNegative:
    def test_recovers_nonnegative_truth(self, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        x = uniform_delay_metrics(fig1_scenario.topology, rng=5)
        estimator = _nnls(matrix)
        assert np.allclose(estimator.estimate(matrix @ x), x, atol=1e-6)

    def test_never_negative(self, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        rng = np.random.default_rng(0)
        y = rng.random(matrix.shape[0]) * 100
        assert np.all(estimate := _nnls(matrix).estimate(y) >= 0.0)

    def test_degenerate_rejected(self):
        with pytest.raises(TomographyError):
            _nnls(np.zeros((3, 0)))


class TestRidge:
    def test_small_lambda_close_to_ls(self, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        x = fig1_scenario.true_metrics
        estimate = _ridge(matrix, lam=1e-9).estimate(matrix @ x)
        assert np.allclose(estimate, x, atol=1e-5)

    def test_large_lambda_shrinks(self, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        x = fig1_scenario.true_metrics
        estimate = _ridge(matrix, lam=1e6).estimate(matrix @ x)
        assert np.linalg.norm(estimate) < np.linalg.norm(x)

    def test_handles_rank_deficiency(self):
        mat = np.array([[1.0, 1.0]])
        estimate = _ridge(mat, lam=1e-3).estimate(np.array([4.0]))
        assert np.all(np.isfinite(estimate))

    def test_invalid_lambda(self):
        with pytest.raises(TomographyError):
            _ridge(np.eye(2), lam=0.0)
