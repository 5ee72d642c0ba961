"""Cross-estimator parity and property suite for the estimator zoo.

The contracts, over random 0/1 path-incidence matrices:

- ``ls`` via the zoo is *bit-identical* to :meth:`LinearSystem.estimate`
  (not merely close — the same kernel operator is applied);
- ``bayes-map`` converges to least squares as the prior variance grows;
- ``l1`` exactly recovers k-sparse ground truth on identifiable
  (full-column-rank) systems;
- every family is dense/sparse-backend consistent to 1e-8;
- ``estimate`` of a block matches the looped single-vector path.

Plus: registry dispatch and the ``REPRO_ESTIMATOR`` knob, the rejection
of routing matrices without a path or a link, per-estimator threshold
calibration, and the RP001 lint fixture pinning that an estimator
bypassing :class:`LinearSystem` trips the analyzer.
"""

from __future__ import annotations

import textwrap

import numpy as np
import pytest
import scipy.sparse
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.exceptions import TomographyError, ValidationError
from repro.tomography.estimator_zoo import (
    ESTIMATOR_ENV_VAR,
    BayesMapEstimator,
    L1SparseEstimator,
    LeastSquaresZooEstimator,
    RidgeZooEstimator,
    calibrated_alpha,
    estimator_names,
    register_estimator,
    resolve_estimator,
)
from repro.tomography.linear_system import LinearSystem

PARITY_TOL = 1e-8

common = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

small = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _incidence(num_paths: int, num_links: int, hops: int, seed: int) -> np.ndarray:
    """Random 0/1 path-link incidence matrix with ``hops`` ones per row."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((num_paths, num_links))
    for i in range(num_paths):
        cols = rng.choice(num_links, size=min(hops, num_links), replace=False)
        matrix[i, cols] = 1.0
    return matrix


class TestRegistry:
    def test_the_required_families_are_registered(self):
        assert {"ls", "bayes-map", "l1", "ridge", "nnls"} <= set(estimator_names())

    def test_unknown_name_rejected_with_choices(self):
        with pytest.raises(ValidationError, match="unknown estimator"):
            resolve_estimator("kalman", routing_matrix=np.eye(3))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValidationError, match="already registered"):
            register_estimator("ls")(LeastSquaresZooEstimator)

    def test_needs_exactly_one_kernel_source(self):
        system = LinearSystem(np.eye(3))
        with pytest.raises(ValidationError, match="system= or a routing_matrix="):
            resolve_estimator("ls")
        with pytest.raises(ValidationError, match="not both"):
            resolve_estimator("ls", system=system, routing_matrix=np.eye(3))

    def test_explicit_name_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ESTIMATOR_ENV_VAR, "bayes-map")
        est = resolve_estimator("ridge", routing_matrix=np.eye(3))
        assert isinstance(est, RidgeZooEstimator)

    def test_environment_resolves_when_name_omitted(self, monkeypatch):
        monkeypatch.setenv(ESTIMATOR_ENV_VAR, "bayes-map")
        est = resolve_estimator(routing_matrix=np.eye(3))
        assert est.name == "bayes-map"
        monkeypatch.delenv(ESTIMATOR_ENV_VAR)
        assert resolve_estimator(routing_matrix=np.eye(3)).name == "ls"

    def test_params_digest_separates_names_and_params(self):
        system = LinearSystem(np.eye(3))
        ls = resolve_estimator("ls", system=system)
        bayes_a = resolve_estimator("bayes-map", system=system, prior_var=10.0)
        bayes_b = resolve_estimator("bayes-map", system=system, prior_var=20.0)
        digests = {ls.params_digest, bayes_a.params_digest, bayes_b.params_digest}
        assert len(digests) == 3
        again = resolve_estimator("bayes-map", system=system, prior_var=10.0)
        assert again.params_digest == bayes_a.params_digest

    def test_estimator_requires_a_linear_system(self):
        with pytest.raises(ValidationError, match="LinearSystem"):
            LeastSquaresZooEstimator(np.eye(3))


class TestLsParity:
    @common
    @given(
        num_paths=st.integers(2, 12),
        num_links=st.integers(2, 14),
        hops=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    def test_ls_via_zoo_is_bit_identical(self, num_paths, num_links, hops, seed):
        matrix = _incidence(num_paths, num_links, hops, seed)
        system = LinearSystem(matrix)
        rng = np.random.default_rng(seed + 1)
        observed = rng.uniform(0.0, 100.0, size=num_paths)
        block = rng.uniform(0.0, 100.0, size=(num_paths, 5))
        zoo = resolve_estimator("ls", system=system)
        assert np.array_equal(zoo.estimate(observed), system.estimate(observed))
        assert np.array_equal(zoo.estimate(block), system.estimate(block))


class TestBayesMap:
    @common
    @given(
        num_paths=st.integers(3, 12),
        num_links=st.integers(2, 10),
        hops=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    def test_weak_prior_converges_to_least_squares(
        self, num_paths, num_links, hops, seed
    ):
        matrix = _incidence(num_paths, num_links, hops, seed)
        # The shrinkage bias grows like lam / sigma_min^3: near-singular
        # systems converge too, but need priors beyond float64's reach.
        assume(np.linalg.cond(matrix) < 1e3)
        system = LinearSystem(matrix)
        rng = np.random.default_rng(seed + 1)
        observed = rng.uniform(0.0, 100.0, size=num_paths)
        bayes = resolve_estimator("bayes-map", system=system, prior_var=1e14)
        np.testing.assert_allclose(
            bayes.estimate(observed), system.estimate(observed), rtol=0, atol=1e-4
        )

    def test_strong_prior_pins_the_mean(self):
        # One path over two links cannot split the sum; a tight prior
        # around mu0 must dominate the (underdetermined) data term.
        matrix = np.array([[1.0, 1.0]])
        mean = np.array([3.0, 11.0])
        bayes = resolve_estimator(
            "bayes-map",
            routing_matrix=matrix,
            prior_var=1e-9,
            prior_mean=mean,
        )
        np.testing.assert_allclose(bayes.estimate(np.array([100.0])), mean, atol=1e-4)

    def test_consistent_mean_is_exact_whatever_the_prior(self):
        # When y == R mu0 the shifted problem is all-zeros: the MAP
        # estimate is mu0 exactly, for any prior strength.
        matrix = _incidence(6, 4, 2, seed=3)
        mean = np.full(4, 7.5)
        observed = matrix @ mean
        for prior_var in (1e-6, 1.0, 1e6):
            bayes = resolve_estimator(
                "bayes-map",
                routing_matrix=matrix,
                prior_var=prior_var,
                prior_mean=mean,
            )
            np.testing.assert_allclose(bayes.estimate(observed), mean, atol=1e-8)

    def test_ridge_is_the_zero_mean_special_case(self):
        matrix = _incidence(8, 5, 3, seed=11)
        system = LinearSystem(matrix)
        rng = np.random.default_rng(12)
        observed = rng.uniform(0.0, 50.0, size=8)
        lam = 0.37
        ridge = resolve_estimator("ridge", system=system, lam=lam)
        bayes = resolve_estimator(
            "bayes-map", system=system, prior_var=1.0 / lam, noise_var=1.0
        )
        assert isinstance(ridge, BayesMapEstimator)
        np.testing.assert_allclose(
            ridge.estimate(observed), bayes.estimate(observed), atol=1e-12
        )

    def test_invalid_parameters_rejected(self):
        system = LinearSystem(np.eye(3))
        with pytest.raises(TomographyError, match="prior_var"):
            BayesMapEstimator(system, prior_var=0.0)
        with pytest.raises(TomographyError, match="noise_var"):
            BayesMapEstimator(system, noise_var=-1.0)
        with pytest.raises(TomographyError, match="ridge parameter"):
            RidgeZooEstimator(system, lam=0.0)
        with pytest.raises(ValidationError):
            BayesMapEstimator(system, prior_mean=np.ones(7))


class TestL1Sparse:
    @small
    @given(
        num_links=st.integers(2, 8),
        extra_paths=st.integers(1, 6),
        sparsity=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    def test_exact_recovery_of_sparse_truth(
        self, num_links, extra_paths, sparsity, seed
    ):
        matrix = _incidence(num_links + extra_paths, num_links, 2, seed)
        system = LinearSystem(matrix)
        assume(system.is_full_column_rank)
        rng = np.random.default_rng(seed + 1)
        truth = np.zeros(num_links)
        support = rng.choice(num_links, size=min(sparsity, num_links), replace=False)
        truth[support] = rng.uniform(5.0, 50.0, size=support.shape[0])
        l1 = resolve_estimator("l1", system=system)
        np.testing.assert_allclose(l1.estimate(matrix @ truth), truth, atol=1e-6)

    def test_prefers_the_sparse_explanation_when_underdetermined(self):
        # One path over two links: LS splits the delay evenly, the L1
        # decoder concentrates it (the compressive-sensing behaviour the
        # family exists for).  Either corner is minimal-L1; the solution
        # must be one of them, not the dense split.
        matrix = np.array([[1.0, 1.0]])
        l1 = resolve_estimator("l1", routing_matrix=matrix)
        solution = l1.estimate(np.array([10.0]))
        assert solution.min() == pytest.approx(0.0, abs=1e-6)
        assert solution.sum() == pytest.approx(10.0, abs=1e-6)

    def test_sparse_system_is_never_densified(self):
        matrix = _incidence(60, 90, 4, seed=3)
        sparse = LinearSystem(scipy.sparse.csr_matrix(matrix), backend="sparse")
        dense = LinearSystem(matrix, backend="dense")
        observed = matrix @ np.random.default_rng(4).uniform(1.0, 20.0, size=90)
        via_sparse = resolve_estimator("l1", system=sparse).estimate(observed)
        assert "matrix" not in vars(sparse)
        via_dense = resolve_estimator("l1", system=dense).estimate(observed)
        assert np.array_equal(via_sparse, via_dense)

    def test_invalid_penalty_rejected(self):
        with pytest.raises(TomographyError, match="penalty"):
            L1SparseEstimator(LinearSystem(np.eye(2)), penalty=0.0)


class TestBackendConsistency:
    @small
    @given(
        num_paths=st.integers(3, 10),
        num_links=st.integers(2, 10),
        hops=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    def test_every_family_is_backend_consistent(
        self, num_paths, num_links, hops, seed
    ):
        matrix = _incidence(num_paths, num_links, hops, seed)
        dense = LinearSystem(matrix, backend="dense")
        sparse = LinearSystem(matrix, backend="sparse")
        rng = np.random.default_rng(seed + 1)
        observed = matrix @ rng.uniform(1.0, 20.0, size=num_links)
        for name in estimator_names():
            via_dense = resolve_estimator(name, system=dense).estimate(observed)
            via_sparse = resolve_estimator(name, system=sparse).estimate(observed)
            np.testing.assert_allclose(
                via_dense, via_sparse, atol=PARITY_TOL, err_msg=name
            )


class TestBatchMatchesLooped:
    @small
    @given(
        num_paths=st.integers(2, 10),
        num_links=st.integers(2, 10),
        hops=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        width=st.integers(1, 4),
    )
    def test_estimate_batch_matches_looped_estimate(
        self, num_paths, num_links, hops, seed, width
    ):
        matrix = _incidence(num_paths, num_links, hops, seed)
        system = LinearSystem(matrix)
        rng = np.random.default_rng(seed + 1)
        block = rng.uniform(0.0, 100.0, size=(num_paths, width))
        for name in estimator_names():
            estimator = resolve_estimator(name, system=system)
            batched = estimator.estimate(block)
            looped = np.stack(
                [estimator.estimate(block[:, j]) for j in range(width)], axis=1
            )
            if name == "l1":
                # Warm-started LP re-solves may land on a different vertex
                # of a degenerate optimal face; the optimal *objective* is
                # what is unique, so compare that per column.
                for j in range(width):
                    objectives = [
                        float(np.abs(x).sum())
                        + estimator.penalty
                        * float(np.abs(matrix @ x - block[:, j]).sum())
                        for x in (batched[:, j], looped[:, j])
                    ]
                    assert objectives[0] == pytest.approx(
                        objectives[1], rel=1e-5, abs=1e-4
                    )
            else:
                np.testing.assert_allclose(
                    batched, looped, atol=PARITY_TOL, err_msg=name
                )

    def test_batch_shape_and_finiteness_validated(self):
        estimator = resolve_estimator("ls", routing_matrix=np.eye(3))
        with pytest.raises(ValidationError, match="measurement block"):
            estimator.estimate(np.ones((4, 2)))
        with pytest.raises(ValidationError, match="finite"):
            estimator.estimate(np.full((3, 2), np.nan))


class TestDegenerateSystems:
    @pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
    def test_every_family_rejects_an_empty_dimension(self, shape):
        """Rejected at construction: nnls over an empty matrix corrupts the
        heap, and the other families return vectors that mean nothing."""
        for name in estimator_names():
            with pytest.raises(TomographyError, match="degenerate"):
                resolve_estimator(name, routing_matrix=np.zeros(shape))


class TestCalibratedAlpha:
    def test_unbiased_estimator_keeps_the_base_alpha(self, fig1_scenario):
        system = LinearSystem(fig1_scenario.path_set.routing_matrix())
        honest = fig1_scenario.honest_measurements()
        ls = resolve_estimator("ls", system=system)
        assert calibrated_alpha(ls, honest, 200.0) == pytest.approx(200.0, abs=1e-6)

    def test_biased_estimator_gets_headroom(self, fig1_scenario):
        system = LinearSystem(fig1_scenario.path_set.routing_matrix())
        honest = fig1_scenario.honest_measurements()
        ridge = resolve_estimator("ridge", system=system, lam=10.0)
        alpha = calibrated_alpha(ridge, honest, 200.0)
        bias = float(np.abs(system.predict(ridge.estimate(honest)) - honest).sum())
        assert bias > 1.0  # lam=10 shrinks hard; the bias is real
        assert alpha == pytest.approx(200.0 + bias)

    def test_negative_base_rejected(self, fig1_scenario):
        system = LinearSystem(fig1_scenario.path_set.routing_matrix())
        ls = resolve_estimator("ls", system=system)
        with pytest.raises(ValidationError, match="base_alpha"):
            calibrated_alpha(ls, fig1_scenario.honest_measurements(), -1.0)


class TestRp001Fixture:
    """An estimator that factorises R itself — bypassing the shared
    LinearSystem kernel — must trip the analyzer's RP001 rule."""

    def test_bypassing_the_kernel_trips_rp001(self, tmp_path):
        from repro.analysis.lint.engine import analyze_paths

        rogue = textwrap.dedent(
            """
            import numpy as np

            class RogueEstimator:
                def __init__(self, routing_matrix):
                    self._operator = np.linalg.pinv(routing_matrix)

                def estimate(self, observed):
                    return self._operator @ observed
            """
        )
        path = tmp_path / "tomography" / "rogue.py"
        path.parent.mkdir(parents=True)
        path.write_text(rogue)
        findings = analyze_paths([tmp_path], select=["RP001"]).violations
        assert findings and all(f.rule == "RP001" for f in findings)

    def test_the_real_zoo_module_is_clean(self):
        from pathlib import Path

        from repro.analysis.lint.engine import analyze_paths

        import repro.tomography.estimator_zoo as zoo

        path = Path(zoo.__file__)
        assert analyze_paths([path], select=["RP001"]).violations == []
