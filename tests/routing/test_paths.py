"""Tests for MeasurementPath and PathSet."""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidPathError, ValidationError
from repro.routing.paths import MeasurementPath, PathSet
from repro.routing.selection import select_identifiable_paths
from repro.scenarios.simple_network import paper_fig1_scenario
from repro.topology.generators.simple import grid_topology, paper_example_network


@pytest.fixture()
def topo():
    return paper_example_network()


class TestMeasurementPath:
    def test_link_resolution(self, topo):
        path = MeasurementPath(topo, ["M1", "A", "C", "D", "M2"])
        assert path.link_indices == (0, 3, 6, 9)

    def test_endpoints(self, topo):
        path = MeasurementPath(topo, ["M1", "A", "B", "M3"])
        assert path.source == "M1"
        assert path.target == "M3"
        assert path.num_hops == 3
        assert path.interior_nodes == ("A", "B")

    def test_too_short(self, topo):
        with pytest.raises(InvalidPathError):
            MeasurementPath(topo, ["M1"])

    def test_repeated_node_rejected(self, topo):
        with pytest.raises(InvalidPathError, match="twice"):
            MeasurementPath(topo, ["M1", "A", "B", "A"])

    def test_non_adjacent_rejected(self, topo):
        with pytest.raises(InvalidPathError, match="not adjacent"):
            MeasurementPath(topo, ["M1", "D"])

    def test_contains_node(self, topo):
        path = MeasurementPath(topo, ["M1", "A", "C", "M2"])
        assert path.contains_node("C")
        assert path.contains_node("M1")  # endpoints count
        assert not path.contains_node("B")

    def test_contains_any_node(self, topo):
        path = MeasurementPath(topo, ["M1", "A", "C", "M2"])
        assert path.contains_any_node(["B", "C"])
        assert not path.contains_any_node(["B", "D"])

    def test_contains_link(self, topo):
        path = MeasurementPath(topo, ["M1", "A", "C", "M2"])
        assert path.contains_link(0)
        assert not path.contains_link(9)
        assert path.contains_any_link([9, 3])

    def test_reverse_equals_forward(self, topo):
        fwd = MeasurementPath(topo, ["M1", "A", "C", "M2"])
        rev = fwd.reversed(topo)
        assert fwd == rev
        assert hash(fwd) == hash(rev)
        assert rev.source == "M2"

    def test_distinct_paths_not_equal(self, topo):
        a = MeasurementPath(topo, ["M1", "A", "C", "M2"])
        b = MeasurementPath(topo, ["M1", "A", "B", "M3"])
        assert a != b

    def test_len_is_node_count(self, topo):
        assert len(MeasurementPath(topo, ["M1", "A", "B", "M3"])) == 4


class TestPathSet:
    def test_from_node_sequences(self, topo):
        ps = PathSet.from_node_sequences(
            topo, [["M1", "A", "C", "M2"], ["M3", "D", "M2"]]
        )
        assert ps.num_paths == 2
        assert len(ps) == 2

    def test_routing_matrix_entries(self, topo):
        ps = PathSet.from_node_sequences(topo, [["M1", "A", "C", "M2"]])
        matrix = ps.routing_matrix()
        assert matrix.shape == (1, 10)
        expected = np.zeros(10)
        expected[[0, 3, 7]] = 1.0
        assert np.array_equal(matrix[0], expected)

    def test_paths_containing_node(self, topo):
        ps = PathSet.from_node_sequences(
            topo, [["M1", "A", "C", "M2"], ["M3", "D", "M2"], ["M3", "B", "A", "M1"]]
        )
        assert ps.paths_containing_node("A") == [0, 2]
        assert ps.paths_containing_any_node(["D", "B"]) == [1, 2]

    def test_paths_containing_link(self, topo):
        ps = PathSet.from_node_sequences(
            topo, [["M1", "A", "C", "M2"], ["M3", "D", "M2"]]
        )
        assert ps.paths_containing_link(9) == [1]
        assert ps.paths_containing_any_link({0, 9}) == [0, 1]

    def test_path_index_bounds(self, topo):
        ps = PathSet.from_node_sequences(topo, [["M3", "D", "M2"]])
        assert ps.path(0).source == "M3"
        with pytest.raises(ValidationError):
            ps.path(1)

    def test_monitor_pairs(self, topo):
        ps = PathSet.from_node_sequences(
            topo, [["M1", "A", "C", "M2"], ["M2", "C", "A", "M1"], ["M3", "D", "M2"]]
        )
        assert ps.monitor_pairs() == {
            frozenset(("M1", "M2")),
            frozenset(("M2", "M3")),
        }

    def test_append_validates_links(self, topo):
        other = paper_example_network()
        path = MeasurementPath(other, ["M3", "D", "M2"])
        ps = PathSet(topo)
        ps.append(path)  # same structure, indices valid
        assert ps.num_paths == 1

    def test_empty_routing_matrix_shape(self, topo):
        ps = PathSet(topo)
        assert ps.routing_matrix().shape == (0, 10)


@cache
def _path_pool(name: str) -> tuple:
    """(topology, paths) to draw churn from: the Fig. 1 set or a 4x4 grid."""
    if name == "fig1":
        path_set = paper_fig1_scenario().path_set
    else:
        topology = grid_topology(4, 4)
        monitors = [n for n in topology.nodes() if topology.degree(n) <= 3]
        path_set = select_identifiable_paths(topology, monitors, rng=0)
    return path_set.topology, tuple(path_set.paths())


def _scan(path_set: PathSet, predicate) -> list[int]:
    """The linear-scan reference every indexed query must reproduce."""
    return [row for row, path in enumerate(path_set) if predicate(path)]


def _assert_queries_match_scan(path_set: PathSet, probes: list[int]) -> None:
    topology = path_set.topology
    nodes = topology.nodes()
    # One link and one node past the topology: no path contains them.
    for link in range(topology.num_links + 1):
        assert path_set.paths_containing_link(link) == _scan(
            path_set, lambda p: p.contains_link(link)
        )
    for node in [*nodes, "nowhere"]:
        assert path_set.paths_containing_node(node) == _scan(
            path_set, lambda p: p.contains_node(node)
        )
    assert path_set.measured_links() == tuple(
        link
        for link in range(topology.num_links)
        if _scan(path_set, lambda p: p.contains_link(link))
    )
    links = {probe % (topology.num_links + 1) for probe in probes}
    some_nodes = {nodes[probe % len(nodes)] for probe in probes}
    assert path_set.paths_containing_any_link(links) == _scan(
        path_set, lambda p: p.contains_any_link(links)
    )
    assert path_set.paths_containing_any_node(some_nodes) == _scan(
        path_set, lambda p: p.contains_any_node(some_nodes)
    )


class TestDerivedState:
    """Indexed queries and the shared R follow every append/remove."""

    @settings(max_examples=40, deadline=None)
    @given(
        pool=st.sampled_from(["fig1", "grid"]),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 10_000)), min_size=1, max_size=12
        ),
        probes=st.lists(st.integers(0, 10_000), max_size=5),
    )
    def test_queries_match_linear_scan_under_churn(self, pool, ops, probes):
        topology, paths = _path_pool(pool)
        path_set = PathSet(topology, paths[: len(paths) // 2])
        _assert_queries_match_scan(path_set, probes)
        for append, pick in ops:
            if append or not len(path_set):
                path_set.append(paths[pick % len(paths)])
            else:
                path_set.remove(pick % len(path_set))
            _assert_queries_match_scan(path_set, probes)

    def test_returned_rows_are_fresh_lists(self):
        topology, paths = _path_pool("fig1")
        path_set = PathSet(topology, paths)
        link, node = paths[0].link_indices[0], paths[0].nodes[0]
        expected_link = path_set.paths_containing_link(link)
        expected_node = path_set.paths_containing_node(node)
        path_set.paths_containing_link(link).append(999)
        path_set.paths_containing_node(node).clear()
        path_set.paths_containing_any_link([link]).append(999)
        assert path_set.paths_containing_link(link) == expected_link
        assert path_set.paths_containing_node(node) == expected_node

    def test_routing_matrix_is_read_only(self):
        topology, paths = _path_pool("fig1")
        matrix = PathSet(topology, paths).routing_matrix()
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 5.0

    def test_routing_matrix_shared_until_mutation(self):
        topology, paths = _path_pool("grid")
        path_set = PathSet(topology, paths[:-1])
        first = path_set.routing_matrix()
        assert path_set.routing_matrix() is first
        path_set.append(paths[-1])
        grown = path_set.routing_matrix()
        assert grown is not first
        assert grown.shape[0] == first.shape[0] + 1
        assert path_set.routing_matrix() is grown
        path_set.remove(0)
        shrunk = path_set.routing_matrix()
        assert shrunk is not grown
        assert np.array_equal(shrunk, grown[1:])
