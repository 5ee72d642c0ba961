"""Tests for the Topology graph type."""

import pytest

from repro.exceptions import LinkNotFoundError, NodeNotFoundError, TopologyError
from repro.topology.generators.isp import large_isp_topology
from repro.topology.generators.simple import paper_example_network
from repro.topology.graph import Link, Topology
from repro.topology.serialization import topology_from_json, topology_to_json


class TestLink:
    def test_endpoints_and_other(self):
        link = Link(index=0, u="a", v="b")
        assert link.endpoints == ("a", "b")
        assert link.other("a") == "b"
        assert link.other("b") == "a"

    def test_other_rejects_non_endpoint(self):
        with pytest.raises(ValueError):
            Link(index=0, u="a", v="b").other("c")

    def test_key_is_order_independent(self):
        assert Link(0, "a", "b").key() == Link(5, "b", "a").key()


class TestConstruction:
    def test_add_link_creates_nodes(self):
        topo = Topology()
        topo.add_link("x", "y")
        assert topo.has_node("x") and topo.has_node("y")
        assert topo.num_nodes == 2
        assert topo.num_links == 1

    def test_link_indices_are_sequential(self):
        topo = Topology()
        links = topo.add_links([(0, 1), (1, 2), (2, 3)])
        assert [link.index for link in links] == [0, 1, 2]

    def test_add_node_idempotent(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("a")
        assert topo.num_nodes == 1

    def test_self_loop_rejected(self):
        topo = Topology()
        with pytest.raises(TopologyError, match="self-loop"):
            topo.add_link("a", "a")

    def test_duplicate_link_rejected_either_direction(self):
        topo = Topology()
        topo.add_link("a", "b")
        with pytest.raises(TopologyError, match="duplicate"):
            topo.add_link("b", "a")

    def test_none_node_rejected(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.add_node(None)


class TestQueries:
    @pytest.fixture()
    def triangle(self):
        topo = Topology(name="tri")
        topo.add_links([("a", "b"), ("b", "c"), ("c", "a")])
        return topo

    def test_nodes_in_insertion_order(self, triangle):
        assert triangle.nodes() == ["a", "b", "c"]

    def test_link_lookup_by_index(self, triangle):
        assert triangle.link(1).endpoints == ("b", "c")

    def test_link_lookup_out_of_range(self, triangle):
        with pytest.raises(LinkNotFoundError):
            triangle.link(3)

    def test_link_between_order_independent(self, triangle):
        assert triangle.link_between("c", "b").index == 1

    def test_link_between_missing(self, triangle):
        triangle.add_node("d")
        with pytest.raises(LinkNotFoundError):
            triangle.link_between("a", "d")

    def test_neighbors(self, triangle):
        assert set(triangle.neighbors("a")) == {"b", "c"}

    def test_neighbors_unknown_node(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.neighbors("zz")

    def test_degree(self, triangle):
        assert triangle.degree("b") == 2

    def test_incident_links(self, triangle):
        indices = [link.index for link in triangle.incident_links("b")]
        assert indices == [0, 1]

    def test_links_incident_to_nodes(self, triangle):
        assert triangle.links_incident_to_nodes(["a"]) == {0, 2}
        assert triangle.links_incident_to_nodes(["a", "b"]) == {0, 1, 2}

    def test_contains_and_iter(self, triangle):
        assert "a" in triangle
        assert list(triangle) == ["a", "b", "c"]

    def test_node_index(self, triangle):
        assert triangle.node_index("c") == 2
        with pytest.raises(NodeNotFoundError):
            triangle.node_index("nope")

    def test_adjacency_returns_fresh_lists(self, triangle):
        adj = triangle.adjacency()
        adj["a"].append("zzz")
        assert "zzz" not in triangle.neighbors("a")


class TestDerived:
    def test_copy_preserves_indices(self):
        topo = Topology(name="orig")
        topo.add_links([("a", "b"), ("b", "c")])
        clone = topo.copy()
        assert clone.nodes() == topo.nodes()
        assert [l.endpoints for l in clone.links()] == [l.endpoints for l in topo.links()]
        clone.add_link("c", "a")
        assert topo.num_links == 2  # original untouched

    def test_subgraph_reindexes_links(self):
        topo = Topology()
        topo.add_links([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        sub = topo.subgraph(["b", "c", "d"])
        assert sub.num_nodes == 3
        assert sub.num_links == 2
        assert [link.index for link in sub.links()] == [0, 1]

    def test_subgraph_unknown_node(self):
        topo = Topology()
        topo.add_link("a", "b")
        with pytest.raises(NodeNotFoundError):
            topo.subgraph(["a", "zz"])

    def test_networkx_round_trip_preserves_link_indices(self):
        topo = Topology(name="rt")
        topo.add_links([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        back = Topology.from_networkx(topo.to_networkx())
        assert back.num_links == topo.num_links
        for original, restored in zip(topo.links(), back.links()):
            assert original.key() == restored.key()
            assert original.index == restored.index

    def test_from_networkx_without_indices(self):
        import networkx as nx

        graph = nx.path_graph(4)
        topo = Topology.from_networkx(graph, name="p4")
        assert topo.num_nodes == 4
        assert topo.num_links == 3


def assert_incidence_in_step(topo):
    """The stored ``(link index, neighbour)`` pairs match the link list."""
    expected = {node: [] for node in topo.nodes()}
    for link in topo.links():
        expected[link.u].append((link.index, link.v))
        expected[link.v].append((link.index, link.u))
    incidence = topo.incidence()
    assert list(incidence) == topo.nodes()
    for node in topo.nodes():
        assert incidence[node] == expected[node]
        assert incidence[node] == [(l.index, l.other(node)) for l in topo.incident_links(node)]
        assert [nb for _, nb in incidence[node]] == topo.neighbors(node)
        assert len(incidence[node]) == topo.degree(node)


class TestIncidence:
    @pytest.fixture(params=["fig1", "isp-large"])
    def topo(self, request):
        if request.param == "fig1":
            return paper_example_network()
        return large_isp_topology(seed=1)

    def test_add_link_extends_the_live_mapping(self, topo):
        incidence = topo.incidence()
        nodes = topo.nodes()
        assert_incidence_in_step(topo)
        link = topo.add_link(nodes[0], "fresh")
        assert topo.incidence() is incidence
        assert incidence[nodes[0]][-1] == (link.index, "fresh")
        assert incidence["fresh"] == [(link.index, nodes[0])]
        assert_incidence_in_step(topo)

    def test_derived_topologies_stay_in_step(self, topo):
        nodes = topo.nodes()
        for derived in (
            topo.copy(),
            topo.subgraph(nodes[: len(nodes) // 2]),
            Topology.from_networkx(topo.to_networkx()),
            topology_from_json(topology_to_json(topo)),
        ):
            assert_incidence_in_step(derived)
        assert topo.copy().incidence() == topo.incidence()
        assert topology_from_json(topology_to_json(topo)).incidence() == topo.incidence()

    def test_rejected_add_link_leaves_incidence_unchanged(self, topo):
        before = {node: list(pairs) for node, pairs in topo.incidence().items()}
        link = topo.links()[0]
        for u, v in [(link.u, link.v), (link.v, link.u), (link.u, link.u), ("zz", "zz")]:
            with pytest.raises(TopologyError):
                topo.add_link(u, v)
        assert topo.incidence() == before
        assert_incidence_in_step(topo)
