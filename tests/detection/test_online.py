"""Streaming consistency detection over an evolving system."""

import json

import numpy as np
import pytest

from repro.detection.consistency import ConsistencyDetector
from repro.detection.online import OnlineConsistencyDetector
from repro.exceptions import DetectionError
from repro.obs import PerfRecorder, recording
from repro.obs import core as obs
from repro.tomography.linear_system import LinearSystem


def _incidence(num_paths: int, num_links: int, hops: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = np.zeros((num_paths, num_links))
    for i in range(num_paths):
        cols = rng.choice(num_links, size=min(hops, num_links), replace=False)
        matrix[i, cols] = 1.0
    return matrix


@pytest.fixture()
def detector():
    return OnlineConsistencyDetector(_incidence(10, 6, 3, 2), alpha=5.0)


class TestConstruction:
    def test_wraps_raw_matrix(self, detector):
        assert isinstance(detector.system, LinearSystem)
        assert detector.epoch == 0
        assert detector.checks == 0

    def test_accepts_built_system(self):
        system = LinearSystem(_incidence(8, 5, 3, 1))
        online = OnlineConsistencyDetector(system, alpha=1.0)
        assert online.system is system

    def test_negative_alpha_rejected(self):
        with pytest.raises(DetectionError, match="alpha"):
            OnlineConsistencyDetector(_incidence(4, 3, 2, 0), alpha=-1.0)

    def test_built_estimator_instance_rejected(self):
        from repro.tomography.estimator_zoo import resolve_estimator

        system = LinearSystem(_incidence(6, 4, 2, 3))
        built = resolve_estimator("ls", system=system)
        with pytest.raises(DetectionError, match="zoo name"):
            OnlineConsistencyDetector(system, alpha=1.0, estimator=built)

    def test_degenerate_matrix_rejected(self):
        with pytest.raises(DetectionError, match="degenerate"):
            OnlineConsistencyDetector(np.zeros((0, 4)), alpha=1.0)


class TestCheck:
    def test_honest_measurements_stay_quiet(self):
        # The exact-zero residual of honest data is a least-squares
        # property, so the estimator is pinned; biased families leave a
        # small residual (next test).
        detector = OnlineConsistencyDetector(
            _incidence(10, 6, 3, 2), alpha=5.0, estimator="ls"
        )
        x = np.full(detector.system.num_links, 10.0)
        result = detector.check(detector.system.predict(x))
        assert not result.detected
        assert result.residual_l1 < 1e-8
        assert detector.checks == 1

    def test_honest_measurements_stay_quiet_under_resolved_estimator(self, detector):
        x = np.full(detector.system.num_links, 10.0)
        result = detector.check(detector.system.predict(x))
        assert not result.detected
        assert result.residual_l1 <= detector.alpha

    def test_inconsistent_measurements_detected(self, detector):
        x = np.full(detector.system.num_links, 10.0)
        observed = detector.system.predict(x)
        observed[0] += 100.0
        # A single-path spike cannot be explained by any link assignment
        # of this (rank-deficient) ensemble — the residual exceeds alpha.
        result = detector.check(observed)
        assert result.detected
        assert result.residual_l1 > detector.alpha

    def test_matches_batch_detector(self):
        matrix = _incidence(12, 7, 3, 4)
        online = OnlineConsistencyDetector(matrix, alpha=5.0)
        batch = ConsistencyDetector(matrix, alpha=5.0)
        rng = np.random.default_rng(5)
        observed = rng.uniform(0.0, 30.0, size=12)
        a = online.check(observed)
        b = batch.check(observed)
        assert a.detected == b.detected
        assert abs(a.residual_l1 - b.residual_l1) < 1e-8

    def test_wrong_shape_rejected(self, detector):
        with pytest.raises(DetectionError, match="shape"):
            detector.check(np.ones(3))

    def test_non_finite_rejected(self, detector):
        bad = np.ones(detector.system.num_paths)
        bad[0] = np.nan
        with pytest.raises(DetectionError, match="finite"):
            detector.check(bad)

    def test_emits_online_check_event(self, tmp_path, detector):
        x = np.ones(detector.system.num_links)
        path = tmp_path / "run.jsonl"
        with obs.enabled(path):
            detector.check(detector.system.predict(x))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        events = [
            r
            for r in records
            if r.get("name") == "online_check" and r.get("kind") == "event"
        ]
        assert len(events) == 1
        assert events[0]["epoch"] == 0
        assert events[0]["detected"] is False

    def test_records_perf_event(self, detector):
        x = np.ones(detector.system.num_links)
        with recording(PerfRecorder()) as recorder:
            detector.check(detector.system.predict(x))
        assert recorder.counters["online_check"] == 1


class TestAdvance:
    def test_churn_evolves_the_system(self, detector):
        before = detector.system
        row = np.zeros(before.num_links)
        row[:3] = 1.0
        evolved = detector.advance(remove_indices=[0], add_rows=[row])
        assert detector.epoch == 1
        assert evolved is detector.system
        assert evolved is not before
        assert evolved.num_paths == before.num_paths

    def test_warm_system_advances_incrementally(self):
        # Only the sparse backend patches its factors under churn.
        detector = OnlineConsistencyDetector(
            LinearSystem(_incidence(10, 6, 3, 2), backend="sparse"), alpha=5.0
        )
        detector.system.rank  # warm the factors so churn can patch them
        row = np.zeros(detector.system.num_links)
        row[1:4] = 1.0
        evolved = detector.advance(remove_indices=[2], add_rows=[row])
        assert evolved.evolved_incrementally

    def test_noop_epoch_still_counts(self, detector):
        before = detector.system
        detector.advance()
        assert detector.epoch == 1
        assert detector.system is before

    def test_check_matches_cold_detector_after_churn(self):
        matrix = _incidence(11, 8, 4, 6)
        online = OnlineConsistencyDetector(matrix, alpha=5.0)
        online.system.rank
        row = np.zeros(8)
        row[2:6] = 1.0
        online.advance(remove_indices=[4], add_rows=[row])
        cold = ConsistencyDetector(np.asarray(online.system.matrix), alpha=5.0)
        rng = np.random.default_rng(7)
        observed = rng.uniform(0.0, 30.0, size=11)
        a = online.check(observed)
        b = cold.check(observed)
        assert a.detected == b.detected
        assert abs(a.residual_l1 - b.residual_l1) < 1e-8

    def test_check_batch_matches_check_after_churn(self):
        online = OnlineConsistencyDetector(_incidence(11, 8, 4, 6), alpha=5.0)
        online.system.rank
        row = np.zeros(8)
        row[2:6] = 1.0
        online.advance(remove_indices=[4], add_rows=[row])
        rng = np.random.default_rng(8)
        block = rng.uniform(0.0, 30.0, size=(online.system.num_paths, 4))
        batched = online.check_batch(block)
        assert len(batched) == block.shape[1]
        for j, result in enumerate(batched):
            single = online.check(block[:, j])
            assert result.detected == single.detected
            assert result.residual_l1 == pytest.approx(single.residual_l1, abs=1e-9)
            np.testing.assert_allclose(result.estimate, single.estimate, rtol=0, atol=1e-9)

    def test_removing_every_path_rejected(self):
        online = OnlineConsistencyDetector(_incidence(2, 4, 2, 8), alpha=1.0)
        with pytest.raises(DetectionError, match="every measurement path"):
            online.advance(remove_indices=[0, 1])

    def test_refused_churn_leaves_the_detector_untouched(self):
        online = OnlineConsistencyDetector(_incidence(4, 3, 2, 9), alpha=1.0)
        system, estimator = online.system, online.estimator
        with pytest.raises(DetectionError, match="every measurement path"):
            online.advance(remove_indices=[0, 1, 2, 3])
        assert online.system is system
        assert online.estimator is estimator
        assert online.epoch == 0
        x = np.ones(system.num_links)
        assert not online.check(system.predict(x)).detected


class TestStructurallyBlind:
    def test_tracks_identifiability_across_churn(self):
        # 3 independent rows over 3 links: rank == num_paths => blind.
        matrix = np.eye(3)
        online = OnlineConsistencyDetector(matrix, alpha=1.0)
        assert online.structurally_blind
        # A dependent fourth row restores a consistency residual.
        online.advance(add_rows=[np.array([1.0, 1.0, 0.0])])
        assert not online.structurally_blind

    def test_matches_batch_detector_over_the_evolved_system(self):
        online = OnlineConsistencyDetector(np.eye(3), alpha=1.0)
        assert online.structurally_blind == ConsistencyDetector(online.system).structurally_blind
        online.advance(add_rows=[np.array([1.0, 1.0, 0.0])])
        batch = ConsistencyDetector(online.system, alpha=1.0)
        assert not batch.structurally_blind
        assert online.structurally_blind == batch.structurally_blind
