"""Tests for the Scenario bundle."""

import pickle

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.measurement.noise import GaussianNoise
from repro.obs import recording
from repro.scenarios.scenario import Scenario
from repro.scenarios.simple_network import paper_fig1_scenario
from repro.tomography.linear_system import LinearSystem
from repro.topology.generators.simple import (
    grid_topology,
    paper_example_network,
    star_topology,
)


class TestBuild:
    def test_explicit_monitors(self):
        topo = paper_example_network()
        scenario = Scenario.build(topo, monitors=["M1", "M2", "M3"], rng=0)
        assert scenario.monitors == ("M1", "M2", "M3")
        assert scenario.path_set.num_paths > 0
        assert scenario.true_metrics.shape == (10,)

    def test_degree_le2_nodes_forced_as_monitors(self):
        """MMP rule: every leaf / degree-2 node becomes a monitor."""
        topo = star_topology(4)  # leaves have degree 1
        scenario = Scenario.build(topo, num_monitors=2, rng=0)
        leaves = [n for n in topo.nodes() if topo.degree(n) == 1]
        assert set(leaves) <= set(scenario.monitors)

    def test_monitor_fraction(self):
        topo = grid_topology(4, 4)
        scenario = Scenario.build(topo, monitor_fraction=0.9, rng=1)
        assert len(scenario.monitors) >= 0.5 * topo.num_nodes

    def test_deterministic(self):
        topo = paper_example_network()
        a = Scenario.build(topo, monitors=["M1", "M2", "M3"], rng=3)
        b = Scenario.build(topo, monitors=["M1", "M2", "M3"], rng=3)
        assert np.array_equal(a.true_metrics, b.true_metrics)
        assert [p.nodes for p in a.path_set] == [p.nodes for p in b.path_set]

    def test_delay_range_respected(self):
        topo = paper_example_network()
        scenario = Scenario.build(
            topo, monitors=["M1", "M2", "M3"], delay_range=(5.0, 6.0), rng=0
        )
        assert np.all(scenario.true_metrics >= 5.0)
        assert np.all(scenario.true_metrics <= 6.0)

    def test_metrics_length_validated(self):
        topo = paper_example_network()
        scenario = Scenario.build(topo, monitors=["M1", "M2", "M3"], rng=0)
        with pytest.raises(ValidationError):
            Scenario(
                topology=topo,
                monitors=("M1", "M2"),
                path_set=scenario.path_set,
                true_metrics=np.ones(3),
            )


class TestDerived:
    def test_attack_context_wiring(self, fig1_scenario):
        context = fig1_scenario.attack_context(["B"])
        assert context.cap == fig1_scenario.cap
        assert context.thresholds is fig1_scenario.thresholds
        assert context.num_paths == fig1_scenario.path_set.num_paths

    def test_engine_measures_honestly(self, fig1_scenario):
        engine = fig1_scenario.engine()
        assert np.allclose(
            engine.measure(fig1_scenario.true_metrics),
            fig1_scenario.honest_measurements(),
        )

    def test_engine_with_noise(self, fig1_scenario):
        engine = fig1_scenario.engine(GaussianNoise(1.0))
        y = engine.measure(fig1_scenario.true_metrics, rng=0)
        assert not np.allclose(y, fig1_scenario.honest_measurements())

    def test_simulator_agrees_with_engine(self, fig1_scenario):
        sim = fig1_scenario.simulator()
        record = sim.run_measurement(fig1_scenario.path_set, rng=0)
        assert np.allclose(
            record.path_delay_vector(), fig1_scenario.honest_measurements()
        )

    def test_auditor_construction(self, fig1_scenario):
        auditor = fig1_scenario.auditor(alpha=123.0)
        assert auditor.detector.alpha == 123.0

    def test_describe(self, fig1_scenario):
        desc = fig1_scenario.describe()
        assert desc["nodes"] == 7
        assert desc["links"] == 10
        assert desc["paths"] == 23
        assert desc["monitors"] == 3
        assert desc["thresholds"] == (100.0, 800.0)


class TestSharedSystem:
    """One factorization per path set, shared by every context and audit."""

    @pytest.mark.parametrize(
        ("backend", "factorization"), [("dense", "svd"), ("sparse", "gram_cholesky")]
    )
    def test_contexts_and_auditor_share_one_factorization(
        self, backend_pin, backend, factorization
    ):
        scenario = paper_fig1_scenario()
        backend_pin(backend)
        attacker_sets = (["B"], ["C"], ["B", "C"], ["A", "D"], ["D"])
        with recording() as recorder:
            for attackers in attacker_sets:
                context = scenario.attack_context(attackers)
                assert context.system is scenario.system
                context.support_operator  # noqa: B018 - touches the factors
                context.baseline_estimate  # noqa: B018
            # Pinned to LS: a regularized family adds its own shifted Gram
            # factorization on the sparse backend.
            auditor = scenario.auditor(alpha=50.0, estimator="ls")
            auditor.audit(scenario.honest_measurements())
        assert scenario.system.backend_name == backend
        assert recorder.counters[factorization] == 1
        assert recorder.counters["svd"] + recorder.counters["gram_cholesky"] == 1

    def test_churn_rebuilds_the_system(self):
        scenario = paper_fig1_scenario()
        before = scenario.system
        assert scenario.system is before
        scenario.path_set.remove(0)
        after = scenario.system
        assert after is not before
        assert after.num_paths == before.num_paths - 1
        cold = LinearSystem(scenario.path_set.routing_matrix().copy())
        honest = scenario.honest_measurements()
        np.testing.assert_allclose(
            after.estimate(honest), cold.estimate(honest), rtol=0, atol=1e-9
        )
        context = scenario.attack_context(["B", "C"])
        assert context.system is after
        assert context.num_paths == after.num_paths

    def test_pickle_drops_the_factorization(self):
        scenario = paper_fig1_scenario()
        cold_bytes = pickle.dumps(scenario)
        honest = scenario.honest_measurements()
        expected = scenario.system.estimate(honest)
        assert scenario.system.rank > 0  # factorized
        warm_bytes = pickle.dumps(scenario)
        assert len(warm_bytes) <= len(cold_bytes)
        clone = pickle.loads(warm_bytes)
        assert np.array_equal(
            clone.path_set.routing_matrix(), scenario.path_set.routing_matrix()
        )
        np.testing.assert_allclose(
            clone.system.estimate(honest), expected, rtol=0, atol=1e-9
        )

    def test_injected_system_pins_the_backend(self, fig1_scenario):
        pinned = LinearSystem(fig1_scenario.path_set.routing_matrix(), backend="sparse")
        context = fig1_scenario.attack_context(["B", "C"], system=pinned)
        assert context.system is pinned
        assert fig1_scenario.auditor(system=pinned).detector.estimator.system is pinned
