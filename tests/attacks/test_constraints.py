"""Tests for Constraint-1 machinery."""

import pytest

from repro.attacks.constraints import (
    attacker_links,
    manipulable_paths,
    validate_manipulation_vector,
)
from repro.exceptions import AttackConstraintError
from repro.topology.generators.simple import paper_example_network


class TestAttackerLinks:
    def test_b_and_c_control_links_2_to_8(self, fig1_scenario):
        links = attacker_links(fig1_scenario.topology, ["B", "C"])
        assert links == {1, 2, 3, 4, 5, 6, 7}

    def test_single_attacker(self):
        topo = paper_example_network()
        assert attacker_links(topo, ["D"]) == {4, 6, 8, 9}

    def test_empty_set_rejected(self):
        with pytest.raises(AttackConstraintError):
            attacker_links(paper_example_network(), [])

    def test_unknown_node_rejected(self):
        with pytest.raises(AttackConstraintError):
            attacker_links(paper_example_network(), ["ghost"])


class TestManipulablePaths:
    def test_support_rows_contain_attacker(self, fig1_scenario):
        support = manipulable_paths(fig1_scenario.path_set, ["B", "C"])
        for row in support:
            assert fig1_scenario.path_set.path(row).contains_any_node({"B", "C"})

    def test_non_support_rows_avoid_attacker(self, fig1_scenario):
        support = set(manipulable_paths(fig1_scenario.path_set, ["B", "C"]))
        for row in range(fig1_scenario.path_set.num_paths):
            if row not in support:
                assert not fig1_scenario.path_set.path(row).contains_any_node({"B", "C"})

    def test_monitor_attacker_supported(self, fig1_scenario):
        """Monitors can be malicious: every path from M1 is manipulable."""
        support = manipulable_paths(fig1_scenario.path_set, ["M1"])
        expected = fig1_scenario.path_set.paths_containing_node("M1")
        assert support == expected
        assert support  # M1 sources several paths

    def test_empty_attackers_rejected(self, fig1_scenario):
        with pytest.raises(AttackConstraintError):
            manipulable_paths(fig1_scenario.path_set, [])


class TestValidateManipulation:
    def test_valid_vector(self):
        m = validate_manipulation_vector([0.0, 5.0, 0.0], [1], 3)
        assert m.tolist() == [0.0, 5.0, 0.0]

    def test_wrong_shape(self):
        with pytest.raises(AttackConstraintError, match="shape"):
            validate_manipulation_vector([1.0], [0], 3)

    def test_negative_entry(self):
        with pytest.raises(AttackConstraintError, match="non-negative"):
            validate_manipulation_vector([-1.0, 0.0], [0], 2)

    def test_off_support_manipulation(self):
        with pytest.raises(AttackConstraintError, match="no attacker"):
            validate_manipulation_vector([0.0, 3.0], [0], 2)

    def test_cap_enforced(self):
        with pytest.raises(AttackConstraintError, match="cap"):
            validate_manipulation_vector([0.0, 3000.0], [1], 2, cap=2000.0)

    def test_cap_tolerance(self):
        m = validate_manipulation_vector([2000.0 + 1e-12], [0], 1, cap=2000.0)
        assert m.shape == (1,)

    def test_nan_rejected(self):
        with pytest.raises(AttackConstraintError, match="finite"):
            validate_manipulation_vector([float("nan")], [0], 1)

    def test_round_off_negative_tolerated(self):
        m = validate_manipulation_vector([-1e-12, 1.0], [0, 1], 2)
        assert m[1] == 1.0
