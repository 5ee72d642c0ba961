"""Dense/sparse backend parity and dispatch.

The sparse backend must be numerically interchangeable with the dense
SVD kernel: same estimates, residuals, rank, and nullspace span, to a
per-component tolerance of 1e-8, over random path-like 0/1 matrices —
including rank-deficient ones, where the min-norm solution is the
contract.  Dispatch (an explicit argument, else the heuristic) is pinned
down separately.
"""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.detection.online import OnlineConsistencyDetector
from repro.exceptions import ValidationError
from repro.obs.core import recording
from repro.tomography.backends import (
    AUTO_DENSITY_THRESHOLD,
    AUTO_SIZE_THRESHOLD,
    resolve_backend_name,
)
from repro.tomography.linear_system import LinearSystem

PARITY_TOL = 1e-8


def _incidence(num_paths: int, num_links: int, hops: int, seed: int) -> np.ndarray:
    """Random 0/1 path-link incidence matrix with ``hops`` ones per row."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((num_paths, num_links))
    for i in range(num_paths):
        cols = rng.choice(num_links, size=min(hops, num_links), replace=False)
        matrix[i, cols] = 1.0
    return matrix


def _copies_of_r(system: LinearSystem) -> list:
    """The distinct arrays of ``R``'s shape that ``system`` keeps.

    Looks in the system, its backend and, once built, the sparse
    backend's dense fallback.
    """
    shape = (system.num_paths, system.num_links)
    holders = [system, system._backend, vars(system._backend).get("_dense_fallback")]
    held = {
        id(value): value
        for holder in holders
        if holder is not None
        for value in vars(holder).values()
        if getattr(value, "shape", None) == shape
    }
    return list(held.values())


def _pair(matrix: np.ndarray) -> tuple[LinearSystem, LinearSystem]:
    return (
        LinearSystem(matrix, backend="dense"),
        LinearSystem(matrix, backend="sparse"),
    )


class TestParity:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_paths=st.integers(2, 14),
        num_links=st.integers(2, 18),
        hops=st.integers(1, 6),
        seed=st.integers(0, 10_000),
    )
    def test_estimate_residual_rank_parity(self, num_paths, num_links, hops, seed):
        matrix = _incidence(num_paths, num_links, hops, seed)
        dense, sparse = _pair(matrix)
        rng = np.random.default_rng(seed + 1)
        observed = rng.uniform(0.0, 100.0, size=num_paths)

        assert dense.rank == sparse.rank
        np.testing.assert_allclose(
            dense.estimate(observed), sparse.estimate(observed), atol=PARITY_TOL
        )
        np.testing.assert_allclose(
            dense.residual(observed), sparse.residual(observed), atol=PARITY_TOL
        )
        assert sparse.residual_l1(observed) == pytest.approx(
            dense.residual_l1(observed), abs=PARITY_TOL * num_paths
        )

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_paths=st.integers(2, 12),
        num_links=st.integers(2, 14),
        hops=st.integers(1, 5),
        seed=st.integers(0, 10_000),
        width=st.integers(1, 6),
    )
    def test_block_operations_match_per_column(
        self, num_paths, num_links, hops, seed, width
    ):
        matrix = _incidence(num_paths, num_links, hops, seed)
        dense, sparse = _pair(matrix)
        rng = np.random.default_rng(seed + 2)
        block = rng.uniform(0.0, 100.0, size=(num_paths, width))
        metrics = rng.uniform(0.0, 100.0, size=(num_links, width))
        operations = {
            "estimate": (lambda system, v: system.estimate(v), block),
            "regularized_estimate": (
                lambda system, v: system.regularized_estimate(v, 1e-3),
                block,
            ),
            "predict": (lambda system, v: system.predict(v), metrics),
            "residual": (lambda system, v: system.residual(v), block),
        }
        for name, (operation, operand) in operations.items():
            dense_block = operation(dense, operand)
            sparse_block = operation(sparse, operand)
            assert dense_block.shape == sparse_block.shape == (
                operation(dense, operand[:, 0]).shape[0],
                width,
            )
            np.testing.assert_allclose(
                dense_block, sparse_block, atol=PARITY_TOL, err_msg=name
            )
            for j in range(width):
                column = operation(dense, operand[:, j])
                for result in (dense_block, sparse_block):
                    np.testing.assert_allclose(
                        result[:, j], column, atol=PARITY_TOL, err_msg=name
                    )
        np.testing.assert_allclose(
            sparse.residual_l1(block),
            [dense.residual_l1(block[:, j]) for j in range(width)],
            atol=PARITY_TOL * num_paths,
        )

    def test_operations_validate_vectors_and_blocks_alike(self):
        system = LinearSystem(np.eye(3))
        for bad in (np.ones(4), np.ones((4, 2)), np.ones((3, 2, 1)), 1.0):
            with pytest.raises(ValidationError, match="measurement block"):
                system.estimate(bad)
        with pytest.raises(ValidationError, match="metric block"):
            system.predict(np.ones((2, 2)))
        for bad in (np.full(3, np.nan), np.full((3, 2), np.inf)):
            with pytest.raises(ValidationError, match="finite"):
                system.residual(bad)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_paths=st.integers(2, 12),
        num_links=st.integers(2, 14),
        hops=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    def test_nullspace_span_and_operator_parity(self, num_paths, num_links, hops, seed):
        matrix = _incidence(num_paths, num_links, hops, seed)
        dense, sparse = _pair(matrix)

        np.testing.assert_allclose(dense.estimator, sparse.estimator, atol=PARITY_TOL)
        nd, ns = dense.nullspace, sparse.nullspace
        assert nd.shape == ns.shape
        # Same span: each sparse-backend nullspace column must be killed by
        # R and reproduced by projection onto the dense basis.
        np.testing.assert_allclose(matrix @ ns, 0.0, atol=PARITY_TOL)
        if nd.shape[1]:
            np.testing.assert_allclose(nd @ (nd.T @ ns), ns, atol=PARITY_TOL)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_paths=st.integers(2, 10),
        num_links=st.integers(2, 12),
        hops=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    def test_column_slices_match_full_operators(self, num_paths, num_links, hops, seed):
        matrix = _incidence(num_paths, num_links, hops, seed)
        dense, sparse = _pair(matrix)
        rng = np.random.default_rng(seed + 3)
        # Both operators (R⁺ and I - R R⁺) have columns indexed by path.
        path_cols = np.unique(rng.integers(0, num_paths, size=min(4, num_paths)))

        np.testing.assert_allclose(
            sparse.estimator_columns(path_cols),
            dense.estimator[:, path_cols],
            atol=PARITY_TOL,
        )
        np.testing.assert_allclose(
            sparse.residual_projector_columns(path_cols),
            dense.residual_projector[:, path_cols],
            atol=PARITY_TOL,
        )


class TestRankFallback:
    def test_ambiguous_gram_spectrum_takes_the_dense_svd(self):
        """``SparseBackend.rank``'s last resort, forced and checked.

        ``R = Q diag(1, 1, 2e-6) Q^T`` with a dense orthogonal ``Q`` (a
        Householder reflection): the Gram's condition number (~2.5e11)
        fails the Cholesky round-trip certificate, and 2e-6 lies within a
        factor 4 of the spectral decision threshold (~1.6e-6 for a 3 x 3
        Gram), so the eigenvalue rule cannot certify either side and the
        dense SVD decides.
        """
        v = np.array([1.0, 2.0, 3.0])
        q = np.eye(3) - 2.0 * np.outer(v, v) / (v @ v)
        matrix = q @ np.diag([1.0, 1.0, 2e-6]) @ q.T
        dense, sparse = _pair(matrix)
        with recording() as recorder:
            rank = sparse.rank
        assert sparse._backend._cholesky is None
        assert "_dense_fallback" in vars(sparse._backend)
        assert recorder.counters["gram_eigh"] == 1
        assert recorder.counters["svd"] == 1
        assert rank == dense.rank == 3


class TestDispatch:
    def test_auto_picks_dense_for_small_matrices(self, backend_pin):
        backend_pin(None)
        assert LinearSystem(np.eye(4)).backend_name == "dense"

    def test_auto_picks_sparse_for_large_sparse_matrices(self):
        side = int(np.sqrt(AUTO_SIZE_THRESHOLD))
        assert resolve_backend_name(
            "auto", shape=(side, side), density=AUTO_DENSITY_THRESHOLD / 10
        ) == "sparse"
        # Large but dense stays on the SVD path.
        assert resolve_backend_name(
            "auto", shape=(side, side), density=0.9
        ) == "dense"

    def test_sparse_input_defaults_to_sparse_backend(self, backend_pin):
        backend_pin(None)
        matrix = scipy.sparse.eye(5, format="csr")
        system = LinearSystem(matrix)
        assert system.backend_name == "sparse"
        np.testing.assert_allclose(system.estimate(np.ones(5)), np.ones(5))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError):
            LinearSystem(np.eye(3), backend="cursed")
        with pytest.raises(ValidationError):
            resolve_backend_name("cursed", shape=(3, 3), density=1.0)


class TestReferenceCounting:
    """A dropped system frees its factors without the cycle collector."""

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_factorized_system_dies_on_del(self, backend):
        system = LinearSystem(_incidence(12, 8, 3, seed=5), backend=backend)
        assert system.rank > 0  # factorize
        assert system.estimator.shape == (8, 12)
        ref = weakref.ref(system)
        gc.disable()
        try:
            del system
            assert ref() is None
        finally:
            gc.enable()

    def test_evolved_sparse_chain_frees_what_it_moved_past(self):
        matrix = _incidence(12, 8, 3, seed=5)
        system = LinearSystem(matrix, backend="sparse")
        system.rank
        passed = []
        gc.disable()
        try:
            for step in range(5):
                passed.append(weakref.ref(system))
                system = system.evolve(remove_indices=[step], add_rows=[matrix[step]])
                assert system.evolved_incrementally
                system.estimate(np.ones(system.num_paths))
                assert [ref() for ref in passed] == [None] * len(passed)
        finally:
            gc.enable()

    def test_sparse_dense_fallback_still_answers_nullspace(self):
        matrix = _incidence(6, 9, 3, seed=11)
        sparse = LinearSystem(matrix, backend="sparse")
        dense = LinearSystem(matrix, backend="dense")
        basis = sparse.nullspace
        assert basis.shape == dense.nullspace.shape
        np.testing.assert_allclose(matrix @ basis, 0.0, atol=PARITY_TOL)


class TestStorage:
    """A system holds ``R`` once, in the form its backend computes with."""

    @pytest.mark.parametrize("given", ["dense", "csr"])
    @pytest.mark.parametrize(
        ("backend", "stored"),
        [("dense", np.ndarray), ("sparse", scipy.sparse.csr_matrix)],
    )
    def test_backend_stores_its_own_form(self, given, backend, stored):
        matrix = _incidence(12, 8, 3, seed=5)
        handed = scipy.sparse.csr_matrix(matrix) if given == "csr" else matrix
        system = LinearSystem(handed, backend=backend)
        system.rank
        (held,) = _copies_of_r(system)
        assert type(held) is stored
        np.testing.assert_array_equal(system.matrix, matrix)

    def test_sparse_system_densifies_only_on_request(self):
        matrix = _incidence(12, 8, 3, seed=5)
        system = LinearSystem(matrix, backend="sparse")
        observed = matrix @ np.arange(1.0, 9.0)
        system.rank
        system.estimate(observed)
        system.residual(observed)
        evolved = system.evolve(remove_indices=[0], add_rows=[matrix[0]])
        detector = OnlineConsistencyDetector(evolved, alpha=1.0, estimator="ls")
        detector.check(evolved.predict(np.ones(8)))
        for each in (system, evolved):
            (held,) = _copies_of_r(each)
            assert scipy.sparse.issparse(held)

        dense = system.matrix
        np.testing.assert_array_equal(dense, matrix)
        assert dense is system._backend._dense_fallback.matrix
        assert len(_copies_of_r(system)) == 2  # the CSR and one dense copy


class TestColumnBlocks:
    """Column blocks are computed per request; the kernel keeps none."""

    @staticmethod
    def _state(obj) -> dict:
        return {
            name: len(value) if isinstance(value, (dict, list)) else id(value)
            for name, value in vars(obj).items()
        }

    def test_dense_system_keeps_no_state_per_support(self):
        matrix = _incidence(40, 20, 4, seed=8)
        system = LinearSystem(matrix, backend="dense")
        estimator = system.estimator
        projector = system.residual_projector
        system.estimator_columns(np.array([0]))
        system.residual_projector_columns(np.array([0]))
        before = (self._state(system), self._state(system._backend))
        rng = np.random.default_rng(9)
        supports: set[tuple[int, ...]] = set()
        while len(supports) < 200:
            size = int(rng.integers(1, 7))
            supports.add(tuple(sorted(rng.choice(40, size=size, replace=False))))
        for support in sorted(supports):
            cols = np.asarray(support, dtype=int)
            np.testing.assert_array_equal(
                system.estimator_columns(cols), estimator[:, cols]
            )
            np.testing.assert_array_equal(
                system.residual_projector_columns(cols), projector[:, cols]
            )
        assert (self._state(system), self._state(system._backend)) == before


class TestSparseEndToEnd:
    def test_fig1_attack_damage_matches_dense(self):
        """The full chosen-victim pipeline agrees across backends."""
        from repro.attacks.chosen_victim import ChosenVictimAttack
        from repro.scenarios.simple_network import paper_fig1_scenario

        scenario = paper_fig1_scenario()
        matrix = scenario.path_set.routing_matrix()
        outcomes = {}
        for name in ("dense", "sparse"):
            context = scenario.attack_context(
                ["B", "C"], system=LinearSystem(matrix, backend=name)
            )
            assert context.system.backend_name == name
            outcomes[name] = ChosenVictimAttack(context, [9]).run()
        assert outcomes["dense"].feasible and outcomes["sparse"].feasible
        assert outcomes["sparse"].damage == pytest.approx(
            outcomes["dense"].damage, abs=1e-6
        )
        np.testing.assert_allclose(
            outcomes["sparse"].predicted_estimate,
            outcomes["dense"].predicted_estimate,
            atol=1e-6,
        )

    def test_detector_batch_matches_single_checks_on_sparse(self):
        from repro.detection.consistency import ConsistencyDetector
        from repro.scenarios.simple_network import paper_fig1_scenario

        scenario = paper_fig1_scenario()
        matrix = scenario.path_set.routing_matrix()
        detector = ConsistencyDetector(
            matrix, alpha=50.0, system=LinearSystem(matrix, backend="sparse")
        )
        rng = np.random.default_rng(7)
        honest = scenario.honest_measurements()
        block = honest[:, None] + rng.normal(0.0, 30.0, size=(honest.size, 5))
        batched = detector.check_batch(block)
        for j, result in enumerate(batched):
            single = detector.check(block[:, j])
            assert result.detected == single.detected
            assert result.residual_l1 == pytest.approx(single.residual_l1, abs=1e-9)
