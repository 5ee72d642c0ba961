"""Tests for AttackContext and AttackOutcome."""

import numpy as np
import pytest

from repro.attacks.base import AttackContext, AttackOutcome
from repro.attacks.constraints import validate_manipulation_vector
from repro.exceptions import AttackConstraintError, ValidationError
from repro.metrics.states import StateThresholds
from repro.tomography.estimator_zoo import resolve_estimator
from repro.tomography.linear_system import LinearSystem


def _flipped(matrix: np.ndarray) -> np.ndarray:
    """A 0/1 matrix of ``matrix``'s shape that differs in one entry."""
    other = matrix.copy()
    other[0, 0] = 1.0 - other[0, 0]
    return other


class TestAttackContext:
    def test_derived_sets(self, fig1_scenario):
        context = AttackContext(
            fig1_scenario.path_set, fig1_scenario.true_metrics, ["B", "C"]
        )
        assert context.controlled_links == frozenset({1, 2, 3, 4, 5, 6, 7})
        assert context.num_paths == 23
        assert context.num_links == 10
        assert set(context.support) == set(
            fig1_scenario.path_set.paths_containing_any_node({"B", "C"})
        )

    def test_duplicate_attackers_deduplicated(self, fig1_scenario):
        context = AttackContext(
            fig1_scenario.path_set, fig1_scenario.true_metrics, ["B", "B", "C"]
        )
        assert context.attacker_nodes == ("B", "C")

    def test_empty_attackers_rejected(self, fig1_scenario):
        with pytest.raises(AttackConstraintError):
            AttackContext(fig1_scenario.path_set, fig1_scenario.true_metrics, [])

    def test_negative_margin_rejected(self, fig1_scenario):
        with pytest.raises(ValidationError):
            AttackContext(
                fig1_scenario.path_set,
                fig1_scenario.true_metrics,
                ["B"],
                margin=-1.0,
            )

    def test_baseline_equals_truth_under_full_rank(self, fig1_scenario):
        context = AttackContext(
            fig1_scenario.path_set, fig1_scenario.true_metrics, ["B"]
        )
        assert np.allclose(context.baseline_estimate, fig1_scenario.true_metrics)

    def test_observed_and_predicted(self, fig1_scenario):
        context = AttackContext(
            fig1_scenario.path_set, fig1_scenario.true_metrics, ["B", "C"]
        )
        m = np.zeros(23)
        m[list(context.support)[:2]] = 100.0
        observed = context.observed_measurements(m)
        assert np.allclose(observed, context.honest_measurements() + m)
        predicted = context.predicted_estimate(m)
        assert predicted.shape == (10,)
        # Estimate must move, and only via Q m.
        assert not np.allclose(predicted, fig1_scenario.true_metrics)

    def test_residual_projector_properties(self, fig1_scenario):
        context = AttackContext(
            fig1_scenario.path_set, fig1_scenario.true_metrics, ["B"]
        )
        projector = context.system.residual_projector
        assert np.allclose(projector @ projector, projector, atol=1e-8)
        assert np.allclose(projector @ fig1_scenario.path_set.routing_matrix(), 0.0, atol=1e-8)
        # Cached: same object on second call.
        assert context.system.residual_projector is projector
        # The stealthy LPs read only the support columns.
        support = sorted(set(context.support))
        assert np.allclose(context.residual_projector_support(), projector[:, support])

    def test_manipulable_link_mask(self, fig1_scenario):
        context = AttackContext(
            fig1_scenario.path_set, fig1_scenario.true_metrics, ["B", "C"]
        )
        mask = context.manipulable_link_mask()
        # Everything B and C touch (and more) is manipulable on Fig. 1.
        assert mask.sum() >= 8

    def test_default_thresholds(self, fig1_scenario):
        context = AttackContext(
            fig1_scenario.path_set, fig1_scenario.true_metrics, ["B"]
        )
        assert context.thresholds == StateThresholds()


class TestConstraint1:
    """``observed_measurements`` checks Constraint 1 on every call, in
    production as under pytest, to within 1e-9."""

    @staticmethod
    def _off_support(context) -> int:
        return next(i for i in range(context.num_paths) if i not in context.support)

    def test_off_support_manipulation_rejected(self, fig1_context):
        m = np.zeros(fig1_context.num_paths)
        m[self._off_support(fig1_context)] = 50.0
        with pytest.raises(AttackConstraintError, match="contains no attacker"):
            fig1_context.observed_measurements(m)

    def test_negative_manipulation_rejected(self, fig1_context):
        m = np.zeros(fig1_context.num_paths)
        m[fig1_context.support[0]] = -5.0
        with pytest.raises(AttackConstraintError, match="non-negative"):
            fig1_context.observed_measurements(m)

    def test_supported_manipulation_accepted(self, fig1_context):
        m = np.zeros(fig1_context.num_paths)
        m[list(fig1_context.support)] = 100.0
        observed = fig1_context.observed_measurements(m)
        assert observed.shape == (fig1_context.num_paths,)
        assert np.array_equal(observed, fig1_context.honest_measurements() + m)

    def test_solver_roundoff_tolerated(self, fig1_context):
        m = np.zeros(fig1_context.num_paths)
        m[fig1_context.support[0]] = -1e-9
        m[self._off_support(fig1_context)] = 1e-9
        fig1_context.observed_measurements(m)
        m[fig1_context.support[0]] = -1e-8
        with pytest.raises(AttackConstraintError):
            fig1_context.observed_measurements(m)

    def test_cap_is_not_checked(self, fig1_context):
        """An LP vertex may exceed the cap by the solver's tolerance."""
        m = np.zeros(fig1_context.num_paths)
        m[fig1_context.support[0]] = fig1_context.cap + 1e-6
        fig1_context.observed_measurements(m)

    def test_wrong_length_and_non_finite_rejected(self, fig1_context):
        with pytest.raises(AttackConstraintError, match="shape"):
            fig1_context.observed_measurements(np.zeros(fig1_context.num_paths - 1))
        m = np.zeros(fig1_context.num_paths)
        m[fig1_context.support[0]] = np.nan
        with pytest.raises(AttackConstraintError, match="finite"):
            fig1_context.observed_measurements(m)


class TestInjectedSystem:
    """An injected kernel must be built over the path set's own ``R``."""

    @staticmethod
    def _context(scenario, **kwargs) -> AttackContext:
        return AttackContext(scenario.path_set, scenario.true_metrics, ["B", "C"], **kwargs)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_value_equal_systems_accepted(self, fig1_scenario, backend):
        matrix = fig1_scenario.path_set.routing_matrix()
        system = LinearSystem(matrix.copy(), backend=backend)
        estimator = resolve_estimator("ls", system=LinearSystem(matrix.copy(), backend=backend))
        context = self._context(fig1_scenario, system=system, estimator=estimator)
        assert context.system is system
        assert context.estimator is estimator

    def test_sparse_system_not_densified(self, fig1_scenario):
        system = LinearSystem(fig1_scenario.path_set.sparse_routing_matrix(), backend="sparse")
        estimator = resolve_estimator("ls", system=system)
        context = self._context(fig1_scenario, system=system, estimator=estimator)
        assert context.system is system
        assert "matrix" not in vars(system)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_system_over_another_matrix_rejected(self, fig1_scenario, backend):
        other = _flipped(fig1_scenario.path_set.routing_matrix())
        with pytest.raises(ValidationError, match="does not match"):
            self._context(fig1_scenario, system=LinearSystem(other, backend=backend))

    def test_system_of_another_shape_rejected(self, fig1_scenario):
        matrix = fig1_scenario.path_set.routing_matrix()
        for other in (matrix[:-1], matrix[:, :-1]):
            with pytest.raises(ValidationError, match="does not match"):
                self._context(fig1_scenario, system=LinearSystem(other))

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_estimator_over_another_system_rejected(self, fig1_scenario, backend):
        other = _flipped(fig1_scenario.path_set.routing_matrix())
        estimator = resolve_estimator("ls", system=LinearSystem(other, backend=backend))
        with pytest.raises(ValidationError, match="not built over"):
            self._context(fig1_scenario, estimator=estimator)


class TestAttackOutcome:
    def test_infeasible_constructor(self):
        outcome = AttackOutcome.infeasible("test", "why not", (3,))
        assert not outcome.feasible
        assert outcome.victim_links == (3,)
        assert outcome.status == "why not"
        assert np.isnan(outcome.mean_path_measurement)

    def test_from_manipulation_derives_everything(self, fig1_scenario):
        context = AttackContext(
            fig1_scenario.path_set, fig1_scenario.true_metrics, ["B", "C"]
        )
        m = np.zeros(23)
        m[list(context.support)] = 10.0
        outcome = AttackOutcome.from_manipulation("test", context, m, (9,), "ok")
        assert outcome.feasible
        assert outcome.damage == pytest.approx(float(m.sum()))
        assert outcome.diagnosis is not None
        assert outcome.victim_links == (9,)
        assert np.allclose(
            outcome.observed_measurements, context.observed_measurements(m)
        )

    def test_from_manipulation_validates_once(self, fig1_context, monkeypatch):
        """``y'`` is built once; the estimate is ``predicted_estimate``'s."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return validate_manipulation_vector(*args, **kwargs)

        m = np.zeros(fig1_context.num_paths)
        m[list(fig1_context.support)] = 10.0
        monkeypatch.setattr("repro.attacks.base.validate_manipulation_vector", counting)
        outcome = AttackOutcome.from_manipulation("test", fig1_context, m, (9,), "ok")
        assert len(calls) == 1
        assert np.array_equal(outcome.predicted_estimate, fig1_context.predicted_estimate(m))
