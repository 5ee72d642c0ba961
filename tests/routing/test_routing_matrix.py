"""Tests for routing-matrix identifiability analysis."""

import pytest

from repro.routing.paths import PathSet
from repro.routing.routing_matrix import identifiability_report
from repro.topology.generators.simple import path_topology


def _report(num_nodes: int, sequences):
    """The report of a path set over the chain ``0 - 1 - ... - (n-1)``,
    whose link ``j`` joins nodes ``j`` and ``j + 1``."""
    topo = path_topology(num_nodes)
    return identifiability_report(PathSet.from_node_sequences(topo, sequences))


class TestIdentifiableLinks:
    def test_full_rank_identifies_all(self):
        # One path per link: R is the identity.
        report = _report(5, [[0, 1], [1, 2], [2, 3], [3, 4]])
        assert report.identifiable == (0, 1, 2, 3)
        assert report.unidentifiable == ()

    def test_sum_only_identifies_nothing(self):
        # One path over two links: only their sum is known.
        report = _report(3, [[0, 1, 2]])
        assert report.identifiable == ()
        assert report.unidentifiable == (0, 1)

    def test_partial_identifiability(self):
        # Link 0 alone on a path, links 1 and 2 only in sum.
        report = _report(4, [[0, 1], [0, 1, 2, 3]])
        assert report.identifiable == (0,)
        assert report.unidentifiable == (1, 2)
        assert report.rank == 2
        assert not report.full_column_rank
        assert report.coverage() == pytest.approx(1 / 3)

    def test_difference_resolves_chain(self):
        # Paths {0,1} and {1} identify both links.
        report = _report(3, [[0, 1, 2], [1, 2]])
        assert report.identifiable == (0, 1)
        assert report.full_column_rank


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

    def test_redundancy_is_rows_minus_rank(self):
        topo = path_topology(3)
        ps = PathSet.from_node_sequences(topo, [[0, 1, 2], [0, 1, 2][::-1]])
        report = identifiability_report(ps)
        assert report.redundancy == report.num_paths - report.rank
