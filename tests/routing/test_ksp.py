"""Tests for shortest paths, Yen's algorithm, and path enumeration."""

import heapq

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NoPathError, ValidationError
from repro.routing.ksp import all_simple_paths, k_shortest_paths, shortest_path
from repro.topology.generators.isp import large_isp_topology, synthetic_rocketfuel
from repro.topology.generators.simple import (
    grid_topology,
    paper_example_network,
    path_topology,
    ring_topology,
)
from repro.topology.graph import Topology


def _reference_shortest_path(
    topology, source, target, *, banned_nodes=frozenset(), banned_links=frozenset()
):
    """Heap-ordered hop-count Dijkstra, the oracle for the library's BFS.

    It pops nodes in (distance, push order) and runs until the target
    leaves the heap; the BFS must return the same node sequence.
    """
    if not topology.has_node(source):
        raise NoPathError(source, target)
    if not topology.has_node(target):
        raise NoPathError(source, target)
    if source in banned_nodes or target in banned_nodes:
        raise NoPathError(source, target)
    if source == target:
        raise ValidationError("source and target must differ for a measurement path")

    counter = 0
    heap = [(0, counter, source)]
    parent = {}
    dist = {source: 0}
    while heap:
        d, _, node = heapq.heappop(heap)
        if node == target:
            break
        if d > dist.get(node, float("inf")):
            continue
        for link in topology.incident_links(node):
            if link.index in banned_links:
                continue
            neighbor = link.other(node)
            if neighbor in banned_nodes:
                continue
            nd = d + 1
            if nd < dist.get(neighbor, float("inf")):
                dist[neighbor] = nd
                parent[neighbor] = node
                counter += 1
                heapq.heappush(heap, (nd, counter, neighbor))
    if target not in dist:
        raise NoPathError(source, target)
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _reference_k_shortest_paths(topology, source, target, k):
    """Yen's loop comparing every accepted path's full root, over the reference search."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    first = _reference_shortest_path(topology, source, target)
    accepted = [first]
    candidates = []
    seen = {tuple(first)}
    counter = 0

    while len(accepted) < k:
        prev_path = accepted[-1]
        for spur_index in range(len(prev_path) - 1):
            root = prev_path[: spur_index + 1]
            spur_node = prev_path[spur_index]
            banned_links = set()
            for path in accepted:
                if len(path) > spur_index and path[: spur_index + 1] == root:
                    link = topology.link_between(path[spur_index], path[spur_index + 1])
                    banned_links.add(link.index)
            banned_nodes = frozenset(root[:-1])
            try:
                spur = _reference_shortest_path(
                    topology,
                    spur_node,
                    target,
                    banned_nodes=banned_nodes,
                    banned_links=frozenset(banned_links),
                )
            except NoPathError:
                continue
            total = root[:-1] + spur
            key = tuple(total)
            if key not in seen:
                seen.add(key)
                counter += 1
                heapq.heappush(candidates, (len(total) - 1, counter, total))
        if not candidates:
            break
        _, _, best = heapq.heappop(candidates)
        accepted.append(best)
    return accepted


def _outcome(search, *args, **kwargs):
    """The search's answer, or ``NoPathError`` when it raises one."""
    try:
        return search(*args, **kwargs)
    except NoPathError:
        return NoPathError


@st.composite
def connected_graphs(draw):
    """A connected simple graph over ``0..n-1`` with shuffled link order.

    A random spanning tree keeps it connected; extra links add the equal-
    length alternatives that tie-breaking decides between.  Links are
    inserted in a drawn order with drawn endpoint orientation, since the
    adjacency order follows insertion order.
    """
    num_nodes = draw(st.integers(2, 10))
    pairs = set()
    for node in range(1, num_nodes):
        pairs.add((draw(st.integers(0, node - 1)), node))
    every = [(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)]
    pairs.update(draw(st.lists(st.sampled_from(every), unique=True, max_size=12)))
    ordered = draw(st.permutations(sorted(pairs)))
    flips = draw(st.lists(st.booleans(), min_size=len(ordered), max_size=len(ordered)))
    topo = Topology()
    topo.add_nodes(draw(st.permutations(range(num_nodes))))
    topo.add_links((v, u) if flip else (u, v) for (u, v), flip in zip(ordered, flips))
    return topo


class TestShortestPath:
    def test_direct_neighbor(self):
        topo = path_topology(3)
        assert shortest_path(topo, 0, 1) == [0, 1]

    def test_path_graph(self):
        topo = path_topology(5)
        assert shortest_path(topo, 0, 4) == [0, 1, 2, 3, 4]

    def test_ring_takes_short_side(self):
        topo = ring_topology(6)
        path = shortest_path(topo, 0, 2)
        assert path == [0, 1, 2]

    def test_banned_node_forces_detour(self):
        topo = ring_topology(6)
        path = shortest_path(topo, 0, 2, banned_nodes=frozenset({1}))
        assert path == [0, 5, 4, 3, 2]

    def test_banned_link_forces_detour(self):
        topo = ring_topology(4)
        direct = topo.link_between(0, 1).index
        path = shortest_path(topo, 0, 1, banned_links=frozenset({direct}))
        assert path == [0, 3, 2, 1]

    def test_no_path_raises(self):
        topo = Topology()
        topo.add_link("a", "b")
        topo.add_link("c", "d")
        with pytest.raises(NoPathError):
            shortest_path(topo, "a", "c")

    def test_same_endpoints_rejected(self):
        topo = path_topology(3)
        with pytest.raises(ValidationError):
            shortest_path(topo, 1, 1)

    def test_unknown_node(self):
        topo = path_topology(3)
        with pytest.raises(NoPathError):
            shortest_path(topo, 0, 99)


class TestKShortestPaths:
    def test_first_is_shortest(self):
        topo = paper_example_network()
        paths = k_shortest_paths(topo, "M1", "M2", 3)
        assert paths[0] == shortest_path(topo, "M1", "M2")

    def test_lengths_non_decreasing(self):
        topo = grid_topology(3, 3)
        paths = k_shortest_paths(topo, (0, 0), (2, 2), 8)
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)

    def test_all_paths_simple_and_valid(self):
        topo = paper_example_network()
        for path in k_shortest_paths(topo, "M1", "M3", 10):
            assert len(set(path)) == len(path)
            for u, v in zip(path, path[1:]):
                assert topo.has_link(u, v)

    def test_paths_are_distinct(self):
        topo = grid_topology(3, 3)
        paths = k_shortest_paths(topo, (0, 0), (2, 2), 10)
        assert len({tuple(p) for p in paths}) == len(paths)

    def test_fewer_than_k_when_exhausted(self):
        topo = path_topology(4)
        assert len(k_shortest_paths(topo, 0, 3, 5)) == 1

    def test_matches_networkx_shortest_simple_paths(self):
        """Cross-check path lengths against networkx on several graphs."""
        for topo in [paper_example_network(), grid_topology(3, 3), ring_topology(7)]:
            graph = topo.to_networkx()
            nodes = topo.nodes()
            source, target = nodes[0], nodes[-1]
            ours = k_shortest_paths(topo, source, target, 12)
            theirs = []
            for i, p in enumerate(nx.shortest_simple_paths(graph, source, target)):
                if i >= 12:
                    break
                theirs.append(p)
            assert [len(p) for p in ours] == [len(p) for p in theirs]

    def test_matches_networkx_on_isp(self):
        topo = synthetic_rocketfuel("mini", backbone_nodes=5, pops_per_backbone=1, seed=2)
        graph = topo.to_networkx()
        ours = k_shortest_paths(topo, "bb0", "bb2", 15)
        gen = nx.shortest_simple_paths(graph, "bb0", "bb2")
        theirs = [p for _, p in zip(range(15), gen)]
        assert [len(p) for p in ours] == [len(p) for p in theirs]

    def test_invalid_k(self):
        with pytest.raises(ValidationError):
            k_shortest_paths(path_topology(3), 0, 2, 0)


class TestSameSequencesAsHeapSearch:
    """The BFS and the narrowed Yen loop return the heap search's node
    sequences, not only equally short ones: a changed tie-break would
    change which paths a scenario measures, and so its routing matrix."""

    @settings(max_examples=150, deadline=None)
    @given(connected_graphs(), st.data())
    def test_banned_spur_searches(self, topo, data):
        nodes = topo.nodes()
        source, target = data.draw(
            st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True)
        )
        banned_nodes = frozenset(data.draw(st.sets(st.sampled_from(nodes), max_size=3)))
        banned_links = frozenset(
            data.draw(st.sets(st.integers(0, topo.num_links - 1), max_size=4))
        )
        kwargs = {"banned_nodes": banned_nodes, "banned_links": banned_links}
        assert _outcome(shortest_path, topo, source, target, **kwargs) == _outcome(
            _reference_shortest_path, topo, source, target, **kwargs
        )

    @settings(max_examples=100, deadline=None)
    @given(connected_graphs(), st.data(), st.integers(1, 8))
    def test_yen(self, topo, data, k):
        source, target = data.draw(
            st.lists(st.sampled_from(topo.nodes()), min_size=2, max_size=2, unique=True)
        )
        assert k_shortest_paths(topo, source, target, k) == _reference_k_shortest_paths(
            topo, source, target, k
        )

    @pytest.mark.parametrize(
        ("topo", "k"),
        [
            (synthetic_rocketfuel("AS1221"), 8),
            (grid_topology(6, 7), 8),
            (large_isp_topology(seed=1), 1),
        ],
        ids=["as1221-k8", "grid6x7-k8", "isp-large-k1"],
    )
    def test_seeded_pairs(self, topo, k):
        nodes = topo.nodes()
        rng = np.random.default_rng(20)
        for _ in range(20):
            a, b = rng.choice(len(nodes), size=2, replace=False)
            source, target = nodes[int(a)], nodes[int(b)]
            assert _outcome(k_shortest_paths, topo, source, target, k) == _outcome(
                _reference_k_shortest_paths, topo, source, target, k
            )


class TestAllSimplePaths:
    def test_counts_match_networkx(self):
        topo = paper_example_network()
        ours = list(all_simple_paths(topo, "M1", "M2"))
        theirs = list(nx.all_simple_paths(topo.to_networkx(), "M1", "M2"))
        assert len(ours) == len(theirs)
        assert {tuple(p) for p in ours} == {tuple(p) for p in theirs}

    def test_cutoff_respected(self):
        topo = grid_topology(3, 3)
        for path in all_simple_paths(topo, (0, 0), (2, 2), max_hops=4):
            assert len(path) - 1 <= 4

    def test_cutoff_matches_networkx(self):
        topo = grid_topology(3, 3)
        ours = {tuple(p) for p in all_simple_paths(topo, (0, 0), (2, 2), max_hops=6)}
        theirs = {
            tuple(p)
            for p in nx.all_simple_paths(topo.to_networkx(), (0, 0), (2, 2), cutoff=6)
        }
        assert ours == theirs

    def test_lazy_generator(self):
        topo = grid_topology(4, 4)
        gen = all_simple_paths(topo, (0, 0), (3, 3))
        first = next(gen)
        assert first[0] == (0, 0) and first[-1] == (3, 3)

    def test_no_paths_when_disconnected(self):
        topo = Topology()
        topo.add_link("a", "b")
        topo.add_link("c", "d")
        with pytest.raises(NoPathError):
            list(all_simple_paths(topo, "a", "x"))
        assert list(all_simple_paths(topo, "a", "c")) == []

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            list(all_simple_paths(path_topology(3), 0, 0))
