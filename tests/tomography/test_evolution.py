"""Evolution parity: evolved systems vs a cold build.

On the sparse backend :meth:`LinearSystem.evolve` seeds the evolved
system's Gram Cholesky factor by rank-1 update/downdate of the parent's;
a dense evolved system runs its own SVD on first use.  The contract is
that an evolved system is *numerically indistinguishable* from one built
cold over the same final matrix: identical estimates, residuals, rank,
and nullspace span to 1e-8, on both backends, in both the tall
(paths >= links) and wide (paths < links) regimes.  The hypothesis suite
drives random churn chains through both constructions and compares;
white-box perf-counter tests pin down which path ran, and one case per
fallback forces the sparse chain back to a cold build and checks the
reason the ``system_evolve`` event gives for it.
"""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.exceptions import ValidationError
from repro.obs import PerfRecorder, read_events, recording
from repro.tomography import backends
from repro.tomography.linear_system import LinearSystem

PARITY_TOL = 1e-8

BACKENDS = ("dense", "sparse")


def _incidence(num_paths: int, num_links: int, hops: int, seed: int) -> np.ndarray:
    """Random 0/1 path-link incidence matrix with ``hops`` ones per row."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((num_paths, num_links))
    for i in range(num_paths):
        cols = rng.choice(num_links, size=min(hops, num_links), replace=False)
        matrix[i, cols] = 1.0
    return matrix


def _random_rows(count: int, num_links: int, hops: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        row = np.zeros(num_links)
        cols = rng.choice(num_links, size=min(hops, num_links), replace=False)
        row[cols] = 1.0
        rows.append(row)
    return rows


def _wrap(matrix: np.ndarray, backend: str):
    """Sparse backend gets a scipy matrix — the production representation."""
    if backend == "sparse":
        return scipy.sparse.csr_matrix(matrix)
    return matrix


def _evolve_logged(system: LinearSystem, log_path, **churn) -> tuple:
    """Evolve under a run log; return the evolved system and its event."""
    with obs.enabled(log_path):
        evolved = system.evolve(**churn)
    (event,) = [
        r
        for r in read_events(log_path)
        if r["kind"] == "event" and r["name"] == "system_evolve"
    ]
    return evolved, event


def _assert_parity(evolved: LinearSystem, cold: LinearSystem, seed: int) -> None:
    """Evolved and cold systems must agree on every public observable."""
    assert evolved.rank == cold.rank
    rng = np.random.default_rng(seed)
    observed = rng.uniform(0.0, 50.0, size=evolved.num_paths)
    assert np.abs(evolved.estimate(observed) - cold.estimate(observed)).max() < PARITY_TOL
    # The eq. (23) residual R x_hat - y, as the detectors form it.
    residuals = [s.predict(s.estimate(observed)) - observed for s in (evolved, cold)]
    assert np.abs(residuals[0] - residuals[1]).max() < PARITY_TOL
    # Nullspace bases are not unique; their projectors N N^T are.
    n_evolved = evolved.nullspace
    n_cold = cold.nullspace
    assert n_evolved.shape == n_cold.shape
    if n_evolved.shape[1]:
        gap = np.abs(n_evolved @ n_evolved.T - n_cold @ n_cold.T).max()
        assert gap < PARITY_TOL


churn_cases = st.tuples(
    st.integers(min_value=0, max_value=2),  # removals
    st.integers(min_value=0, max_value=2),  # additions
    st.integers(min_value=0, max_value=2**31 - 1),  # seed
)


class TestEvolveParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(case=churn_cases)
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_tall_regime_matches_cold_build(self, backend, case):
        num_remove, num_add, seed = case
        base = _incidence(14, 9, 4, seed)
        system = LinearSystem(_wrap(base, backend), backend=backend)
        system.rank  # warm the factorization so the patch path is live
        rng = np.random.default_rng(seed + 1)
        removals = sorted(
            rng.choice(system.num_paths, size=num_remove, replace=False).tolist()
        )
        added = _random_rows(num_add, 9, 4, seed + 2)
        evolved = system.evolve(remove_indices=removals, add_rows=added)
        cold = LinearSystem(_wrap(np.asarray(evolved.matrix), backend), backend=backend)
        _assert_parity(evolved, cold, seed + 3)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(case=churn_cases)
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_wide_regime_matches_cold_build(self, backend, case):
        num_remove, num_add, seed = case
        base = _incidence(8, 17, 5, seed)
        system = LinearSystem(_wrap(base, backend), backend=backend)
        system.rank
        rng = np.random.default_rng(seed + 1)
        removals = sorted(
            rng.choice(system.num_paths, size=num_remove, replace=False).tolist()
        )
        added = _random_rows(num_add, 17, 5, seed + 2)
        evolved = system.evolve(remove_indices=removals, add_rows=added)
        cold = LinearSystem(_wrap(np.asarray(evolved.matrix), backend), backend=backend)
        _assert_parity(evolved, cold, seed + 3)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_chained_epochs_match_cold_build(self, backend, seed):
        """Six epochs of 1-out/1-in churn — the streaming workload."""
        base = _incidence(12, 16, 5, seed)
        system = LinearSystem(_wrap(base, backend), backend=backend)
        system.rank
        rng = np.random.default_rng(seed + 1)
        for epoch in range(6):
            index = int(rng.integers(0, system.num_paths))
            (row,) = _random_rows(1, 16, 5, seed + 10 + epoch)
            system = system.evolve(remove_indices=[index], add_rows=[row])
        cold = LinearSystem(_wrap(np.asarray(system.matrix), backend), backend=backend)
        _assert_parity(system, cold, seed + 99)


class TestEvolveFastPath:
    """White-box: the rank-1 kernels actually ran (no silent cold rebuilds)."""

    def test_sparse_replace_is_incremental(self, tmp_path):
        base = _incidence(10, 20, 5, 7)
        system = LinearSystem(scipy.sparse.csr_matrix(base), backend="sparse")
        system.rank
        (row,) = _random_rows(1, 20, 5, 8)
        with recording(PerfRecorder()) as recorder:
            evolved, event = _evolve_logged(
                system, tmp_path / "run.jsonl", remove_indices=[3], add_rows=[row]
            )
        assert evolved.evolved_incrementally
        assert event["incremental"] and event["reason"] is None
        assert recorder.counters["system_evolve"] == 1
        # One fused replace, counted once: no nested update or delete.
        assert recorder.counters["cholesky_replace"] == 1
        assert sum(
            n for name, n in recorder.counters.items() if name.startswith("cholesky_")
        ) == 1
        # The evolved system serves estimates without ever cold-factorizing.
        with recording(PerfRecorder()) as recorder:
            evolved.estimate(np.ones(evolved.num_paths))
        assert recorder.counters.get("gram_cholesky", 0) == 0

    def test_dense_evolve_refactorizes_cold(self, tmp_path):
        base = _incidence(12, 8, 4, 11)
        system = LinearSystem(base, backend="dense")
        system.rank
        (row,) = _random_rows(1, 8, 4, 12)
        with recording(PerfRecorder()) as recorder:
            evolved, event = _evolve_logged(
                system, tmp_path / "run.jsonl", remove_indices=[2], add_rows=[row]
            )
        assert evolved.evolved_incrementally is False
        assert event["reason"] == "dense"
        assert recorder.counters["system_evolve"] == 1
        assert recorder.counters.get("svd", 0) == 0
        # The evolved system pays exactly one SVD, on first use.
        with recording(PerfRecorder()) as recorder:
            evolved.estimate(np.ones(evolved.num_paths))
        assert recorder.counters["svd"] == 1

    def test_unwarmed_parent_falls_back_cold(self):
        base = _incidence(10, 6, 3, 3)
        system = LinearSystem(scipy.sparse.csr_matrix(base), backend="sparse")
        # No .rank touch: there is no Gram factor to patch yet.
        evolved = system.evolve(remove_indices=[0])
        assert evolved.evolved_incrementally is False
        cold = LinearSystem(
            scipy.sparse.csr_matrix(evolved.matrix), backend="sparse"
        )
        _assert_parity(evolved, cold, 4)

    def test_noop_evolve_shares_factors(self):
        base = _incidence(9, 7, 3, 5)
        system = LinearSystem(scipy.sparse.csr_matrix(base), backend="sparse")
        system.rank
        evolved = system.evolve()
        assert evolved.evolved_incrementally
        assert evolved.rank == system.rank


#: A wide 4 x 9 incidence matrix of full row rank.
_WIDE = _incidence(4, 9, 3, 21)

#: Sparse chains that must fall back cold: ``name -> (parent matrix, warm
#: the parent?, remove_indices, add_rows, the reason evolve reports)``.
FALLBACK_CASES = {
    # No Gram factor has been computed yet.
    "unwarmed-parent": (_WIDE, False, [0], [], "unwarmed"),
    # A duplicated row leaves R R^T singular: the parent solves by LSMR.
    "lsmr-parent": (
        np.vstack([_WIDE, _WIDE[:1]]), True, [1], [], "rank_deficient"
    ),
    # 6 x 6 -> 5 x 6: the small side flips from R^T R to R R^T.
    "tall-to-wide-flip": (
        np.eye(6) + np.eye(6, k=1), True, [2], [], "orientation_flip"
    ),
    # 5 x 6 -> 6 x 6: the small side flips from R R^T to R^T R.
    "wide-to-tall-flip": (
        np.eye(5, 6) + np.eye(5, 6, k=1), True, [], [np.eye(6)[5]],
        "orientation_flip",
    ),
    # A copy of a live row borders R R^T with a zero Schur complement.
    "dependent-append": (_WIDE, True, [], [_WIDE[0]], "dependent_row"),
    # The same, through the fused one-out / one-in replace.
    "dependent-replace": (_WIDE, True, [3], [_WIDE[0]], "dependent_row"),
    # [I_6; e_1] minus row 1 (e_2) drives the second pivot to zero.
    "exhausted-pivot": (
        np.vstack([np.eye(6), np.eye(6)[:1]]), True, [1], [], "exhausted_pivot"
    ),
}


class TestSparseFallback:
    """Every way out of the certified sparse chain ends in a cold build."""

    @pytest.mark.parametrize("case", list(FALLBACK_CASES))
    def test_falls_back_to_a_cold_build(self, case, tmp_path):
        base, warm, removals, additions, reason = FALLBACK_CASES[case]
        system = LinearSystem(scipy.sparse.csr_matrix(base), backend="sparse")
        if warm:
            system.rank
        evolved, event = _evolve_logged(
            system,
            tmp_path / "run.jsonl",
            remove_indices=removals,
            add_rows=additions,
        )
        assert evolved.evolved_incrementally is False
        assert not event["incremental"]
        assert event["reason"] == reason
        assert "probe_error" not in event
        cold = LinearSystem(
            scipy.sparse.csr_matrix(evolved.matrix), backend="sparse"
        )
        _assert_parity(evolved, cold, 5)

    def test_failed_probe_falls_back_with_its_error(self, tmp_path, monkeypatch):
        """A patched factor off by 1e-6 fails the 1e-8 round-trip probe."""
        replace = backends.cholesky_replace
        monkeypatch.setattr(
            backends,
            "cholesky_replace",
            lambda *args: replace(*args) * (1.0 + 1e-6),
        )
        system = LinearSystem(scipy.sparse.csr_matrix(_WIDE), backend="sparse")
        system.rank
        (row,) = _random_rows(1, 9, 3, 22)
        evolved, event = _evolve_logged(
            system, tmp_path / "run.jsonl", remove_indices=[1], add_rows=[row]
        )
        assert evolved.evolved_incrementally is False
        assert event["reason"] == "certification"
        assert 1e-8 < event["probe_error"] < 1e-4
        cold = LinearSystem(
            scipy.sparse.csr_matrix(evolved.matrix), backend="sparse"
        )
        _assert_parity(evolved, cold, 6)


class TestEvolveValidation:
    def test_duplicate_removals_rejected(self):
        system = LinearSystem(_incidence(6, 5, 3, 1))
        with pytest.raises(ValidationError, match="unique"):
            system.evolve(remove_indices=[1, 1])

    def test_out_of_range_removal_rejected(self):
        system = LinearSystem(_incidence(6, 5, 3, 1))
        with pytest.raises(ValidationError, match="remove_indices"):
            system.evolve(remove_indices=[6])

    def test_bad_row_length_rejected(self):
        system = LinearSystem(_incidence(6, 5, 3, 1))
        with pytest.raises(ValidationError):
            system.evolve(add_rows=[np.ones(4)])

    def test_parent_never_mutated(self):
        base = _incidence(8, 6, 3, 2)
        system = LinearSystem(base, backend="dense")
        system.rank
        before = np.asarray(system.matrix).copy()
        system.evolve(remove_indices=[0], add_rows=[np.ones(6)])
        assert np.array_equal(np.asarray(system.matrix), before)
        assert system.num_paths == 8
