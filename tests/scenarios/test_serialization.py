"""Tests for scenario serialization."""

import json
import math

import numpy as np
import pytest

from repro.attacks.chosen_victim import ChosenVictimAttack
from repro.exceptions import SerializationError
from repro.scenarios.scenario import Scenario
from repro.scenarios.serialization import (
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
)
from repro.topology.generators.simple import grid_topology


class TestRoundTrip:
    def test_fig1_round_trips(self, fig1_scenario):
        back = scenario_from_json(scenario_to_json(fig1_scenario))
        assert back.name == fig1_scenario.name
        assert back.monitors == fig1_scenario.monitors
        assert np.array_equal(back.true_metrics, fig1_scenario.true_metrics)
        assert back.cap == fig1_scenario.cap
        assert back.margin == fig1_scenario.margin
        assert back.thresholds == fig1_scenario.thresholds
        assert [p.nodes for p in back.path_set] == [
            p.nodes for p in fig1_scenario.path_set
        ]
        assert np.array_equal(
            back.path_set.routing_matrix(), fig1_scenario.path_set.routing_matrix()
        )

    def test_tuple_node_labels_survive(self):
        topo = grid_topology(3, 3)
        scenario = Scenario.build(topo, monitor_fraction=0.9, rng=1, name="grid")
        back = scenario_from_json(scenario_to_json(scenario))
        assert back.monitors == scenario.monitors
        assert all(isinstance(node, tuple) for node in back.topology.nodes())

    def test_attack_results_identical_after_round_trip(self, fig1_scenario):
        """The whole point: frozen scenarios reproduce results exactly."""
        back = scenario_from_json(scenario_to_json(fig1_scenario))
        original = ChosenVictimAttack(
            fig1_scenario.attack_context(["B", "C"]), [9], mode="exclusive"
        ).run()
        restored = ChosenVictimAttack(
            back.attack_context(["B", "C"]), [9], mode="exclusive"
        ).run()
        assert restored.feasible == original.feasible
        assert restored.damage == pytest.approx(original.damage)
        assert np.allclose(restored.manipulation, original.manipulation)

    def test_none_cap_survives(self, fig1_scenario):
        scenario = Scenario(
            topology=fig1_scenario.topology,
            monitors=fig1_scenario.monitors,
            path_set=fig1_scenario.path_set,
            true_metrics=fig1_scenario.true_metrics,
            cap=None,
        )
        back = scenario_from_json(scenario_to_json(scenario))
        assert back.cap is None


class TestStrictJson:
    """Non-finite numbers must serialize as strict-JSON string sentinels."""

    @staticmethod
    def _with_cap(fig1_scenario, cap):
        return Scenario(
            topology=fig1_scenario.topology,
            monitors=fig1_scenario.monitors,
            path_set=fig1_scenario.path_set,
            true_metrics=fig1_scenario.true_metrics,
            cap=cap,
        )

    def test_infinite_cap_round_trips_as_strict_json(self, fig1_scenario):
        text = scenario_to_json(self._with_cap(fig1_scenario, math.inf))

        def reject_constant(name):  # bare Infinity/NaN tokens are a bug
            raise AssertionError(f"non-standard JSON token {name!r} in output")

        doc = json.loads(text, parse_constant=reject_constant)
        assert doc["cap"] == "Infinity"
        back = scenario_from_json(text)
        assert back.cap == math.inf

    def test_legacy_bare_infinity_token_still_loads(self, fig1_scenario):
        doc = json.loads(scenario_to_json(fig1_scenario))
        doc["cap"] = math.inf
        legacy = json.dumps(doc)  # Python emits the non-standard bare token
        assert "Infinity" in legacy
        assert scenario_from_json(legacy).cap == math.inf

    def test_unknown_sentinel_rejected(self, fig1_scenario):
        doc = json.loads(scenario_to_json(fig1_scenario))
        doc["cap"] = "huge"
        with pytest.raises(SerializationError, match="sentinel"):
            scenario_from_json(json.dumps(doc))


class TestFiles:
    def test_save_load(self, fig1_scenario, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(fig1_scenario, path)
        loaded = load_scenario(path)
        assert loaded.path_set.num_paths == fig1_scenario.path_set.num_paths

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_scenario(tmp_path / "nope.json")


class TestErrors:
    def test_invalid_json(self):
        with pytest.raises(SerializationError):
            scenario_from_json("{oops")

    def test_wrong_format(self):
        with pytest.raises(SerializationError, match="repro-scenario"):
            scenario_from_json('{"format": "other"}')

    def test_wrong_version(self):
        with pytest.raises(SerializationError, match="version"):
            scenario_from_json('{"format": "repro-scenario", "version": 99}')

    def test_malformed_body(self):
        doc = (
            '{"format": "repro-scenario", "version": 1, '
            '"topology": {"format": "repro-topology", "version": 1, '
            '"name": "", "nodes": ["a", "b"], "links": [["a", "b"]]}}'
        )
        with pytest.raises(SerializationError, match="malformed"):
            scenario_from_json(doc)
