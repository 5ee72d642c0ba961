"""Tests for routing-matrix identifiability analysis."""

import numpy as np

from repro.routing.paths import PathSet
from repro.routing.routing_matrix import (
    identifiability_report,
    identifiable_links,
    routing_matrix,
)
from repro.topology.generators.simple import path_topology


class TestIdentifiableLinks:
    def test_full_rank_identifies_all(self):
        assert identifiable_links(np.eye(4)) == [0, 1, 2, 3]

    def test_sum_only_identifies_nothing(self):
        # One path over two links: only their sum is known.
        assert identifiable_links(np.array([[1.0, 1.0]])) == []

    def test_partial_identifiability(self):
        # x0 alone on a path, x1+x2 only in sum.
        mat = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert identifiable_links(mat) == [0]

    def test_difference_resolves_chain(self):
        # Paths {0,1} and {1} identify both links.
        mat = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert identifiable_links(mat) == [0, 1]


class TestReport:
    def test_fig1_fully_identifiable(self, fig1_scenario):
        report = identifiability_report(fig1_scenario.path_set)
        assert report.full_column_rank
        assert report.rank == 10
        assert report.num_paths == 23
        assert report.redundancy == 13
        assert report.coverage() == 1.0
        assert report.unidentifiable == ()

    def test_chain_not_identifiable_without_interior_monitor(self):
        topo = path_topology(3)  # links 0-1, 1-2; monitors at ends only
        ps = PathSet.from_node_sequences(topo, [[0, 1, 2]])
        report = identifiability_report(ps)
        assert not report.full_column_rank
        assert report.rank == 1
        assert report.identifiable == ()
        assert report.coverage() == 0.0

    def test_routing_matrix_helper_matches_method(self, fig1_scenario):
        assert np.array_equal(
            routing_matrix(fig1_scenario.path_set),
            fig1_scenario.path_set.routing_matrix(),
        )

    def test_redundancy_is_rows_minus_rank(self):
        topo = path_topology(3)
        ps = PathSet.from_node_sequences(topo, [[0, 1, 2], [0, 1, 2][::-1]])
        report = identifiability_report(ps)
        assert report.redundancy == report.num_paths - report.rank
