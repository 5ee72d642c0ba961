"""Tests for the consistency detector (eq. 23 / Remark 4)."""

import numpy as np
import pytest

from repro.attacks.chosen_victim import ChosenVictimAttack
from repro.detection.auditor import TomographyAuditor
from repro.detection.consistency import ConsistencyDetector
from repro.exceptions import DetectionError
from repro.tomography.estimator_zoo import resolve_estimator
from repro.tomography.linear_system import LinearSystem


def _flipped(matrix: np.ndarray) -> np.ndarray:
    """A 0/1 matrix of ``matrix``'s shape that differs in one entry."""
    other = matrix.copy()
    other[0, 0] = 1.0 - other[0, 0]
    return other


class TestConstruction:
    def test_alpha_validation(self, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        with pytest.raises(DetectionError):
            ConsistencyDetector(matrix, alpha=-1.0)

    def test_degenerate_matrix(self):
        with pytest.raises(DetectionError):
            ConsistencyDetector(np.zeros((0, 3)))

    def test_square_matrix_flagged_blind(self):
        """Theorem 3: a square invertible R makes every attack invisible."""
        detector = ConsistencyDetector(np.eye(4), alpha=0.0)
        assert detector.structurally_blind

    def test_redundant_matrix_not_blind(self, fig1_scenario):
        detector = ConsistencyDetector(fig1_scenario.path_set.routing_matrix())
        assert not detector.structurally_blind


class TestInjectedSystem:
    """The detector runs on the system it is handed; the auditor, which
    receives both a path set and a system, checks that they agree."""

    def test_sparse_system_not_densified(self, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        system = LinearSystem(fig1_scenario.path_set.sparse_routing_matrix(), backend="sparse")
        estimator = resolve_estimator("ls", system=system)
        detector = ConsistencyDetector(system, estimator=estimator)
        assert detector.system is system
        assert detector.estimator is estimator
        assert not detector.check(matrix @ fig1_scenario.true_metrics).detected
        assert "matrix" not in vars(system)
        # No dense copy of R rides along: the residual goes through the system.
        assert not any(isinstance(value, np.ndarray) for value in vars(detector).values())

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_system_over_another_matrix_rejected(self, fig1_scenario, backend):
        matrix = fig1_scenario.path_set.routing_matrix()
        system = LinearSystem(_flipped(matrix), backend=backend)
        with pytest.raises(DetectionError, match="does not match"):
            TomographyAuditor(fig1_scenario.path_set, system=system)

    def test_system_of_another_shape_rejected(self, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        for other in (matrix[:-1], matrix[:, :-1]):
            with pytest.raises(DetectionError, match="does not match"):
                TomographyAuditor(fig1_scenario.path_set, system=LinearSystem(other))

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_estimator_over_another_system_rejected(self, fig1_scenario, backend):
        matrix = fig1_scenario.path_set.routing_matrix()
        estimator = resolve_estimator("ls", system=LinearSystem(_flipped(matrix), backend=backend))
        with pytest.raises(DetectionError, match="not built over"):
            ConsistencyDetector(matrix, estimator=estimator)


class TestChecks:
    def test_honest_measurements_pass(self, fig1_scenario):
        # Pinned to "ls": the numerically-zero honest residual is a
        # least-squares property, not a promise of every zoo family.
        detector = ConsistencyDetector(
            fig1_scenario.path_set.routing_matrix(), alpha=200.0, estimator="ls"
        )
        result = detector.check(fig1_scenario.honest_measurements())
        assert not result.detected
        assert result.residual_l1 < 1e-8

    def test_tampered_single_path_detected(self, fig1_scenario):
        detector = ConsistencyDetector(
            fig1_scenario.path_set.routing_matrix(), alpha=200.0
        )
        y = fig1_scenario.honest_measurements()
        y[0] += 1500.0
        result = detector.check(y)
        assert result.detected
        assert result.residual_l1 > 200.0
        assert result.max_path_residual() > 0

    def test_square_system_never_detects(self):
        """Any y' is consistent when R is square invertible (under LS)."""
        detector = ConsistencyDetector(np.eye(4), alpha=1e-9, estimator="ls")
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert not detector.check(rng.random(4) * 1000).detected

    def test_lp_attack_on_imperfect_cut_detected(self, fig1_scenario, fig1_context):
        outcome = ChosenVictimAttack(fig1_context, [9], mode="exclusive").run()
        detector = ConsistencyDetector(
            fig1_scenario.path_set.routing_matrix(), alpha=200.0
        )
        assert detector.check(outcome.observed_measurements).detected

    def test_stealthy_perfect_cut_attack_missed(self, fig1_scenario, fig1_context):
        outcome = ChosenVictimAttack(fig1_context, [0], stealthy=True).run()
        detector = ConsistencyDetector(
            fig1_scenario.path_set.routing_matrix(), alpha=200.0
        )
        assert not detector.check(outcome.observed_measurements).detected

    def test_threshold_controls_verdict(self, fig1_scenario):
        y = fig1_scenario.honest_measurements()
        y[0] += 100.0
        matrix = fig1_scenario.path_set.routing_matrix()
        loose = ConsistencyDetector(matrix, alpha=1e9).check(y)
        tight = ConsistencyDetector(matrix, alpha=1.0).check(y)
        assert not loose.detected
        assert tight.detected
        assert loose.residual_l1 == pytest.approx(tight.residual_l1)

    def test_shape_validation(self, fig1_scenario):
        detector = ConsistencyDetector(fig1_scenario.path_set.routing_matrix())
        with pytest.raises(DetectionError):
            detector.check(np.ones(3))

    def test_nonfinite_rejected(self, fig1_scenario):
        detector = ConsistencyDetector(fig1_scenario.path_set.routing_matrix())
        y = fig1_scenario.honest_measurements()
        y[0] = float("inf")
        with pytest.raises(DetectionError):
            detector.check(y)

    def test_estimate_exposed(self, fig1_scenario):
        detector = ConsistencyDetector(
            fig1_scenario.path_set.routing_matrix(), estimator="ls"
        )
        result = detector.check(fig1_scenario.honest_measurements())
        assert np.allclose(result.estimate, fig1_scenario.true_metrics)
