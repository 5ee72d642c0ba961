"""Tests for candidate enumeration and rank-greedy path selection."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.routing.paths import MeasurementPath
from repro.routing.selection import (
    enumerate_candidate_paths,
    select_identifiable_paths,
    select_paths_rank_greedy,
)
from repro.tomography.linear_system import LinearSystem
from repro.topology.generators.isp import synthetic_rocketfuel
from repro.topology.generators.simple import (
    grid_topology,
    paper_example_network,
    path_topology,
)
from repro.topology.graph import Topology


class TestEnumerate:
    def test_all_pairs_covered_on_paper_network(self):
        topo = paper_example_network()
        candidates = enumerate_candidate_paths(topo, ["M1", "M2", "M3"])
        endpoints = {frozenset((p.source, p.target)) for p in candidates}
        assert endpoints == {
            frozenset(("M1", "M2")),
            frozenset(("M1", "M3")),
            frozenset(("M2", "M3")),
        }

    def test_max_per_pair_cap(self):
        topo = paper_example_network()
        candidates = enumerate_candidate_paths(topo, ["M1", "M2"], max_per_pair=3)
        assert len(candidates) == 3

    def test_exhaustive_shortest_first(self):
        topo = paper_example_network()
        candidates = enumerate_candidate_paths(
            topo, ["M1", "M2"], max_per_pair=5, exhaustive=True
        )
        lengths = [p.num_hops for p in candidates]
        assert lengths == sorted(lengths)

    def test_ksp_mode_on_larger_graph(self):
        topo = synthetic_rocketfuel("mini", backbone_nodes=4, pops_per_backbone=1, seed=1)
        candidates = enumerate_candidate_paths(
            topo, ["bb0", "bb1", "bb2"], max_per_pair=4, exhaustive=False
        )
        assert 0 < len(candidates) <= 3 * 4

    def test_disconnected_pair_skipped(self):
        topo = Topology()
        topo.add_link("a", "b")
        topo.add_link("c", "d")
        candidates = enumerate_candidate_paths(topo, ["a", "b", "c"])
        endpoints = {frozenset((p.source, p.target)) for p in candidates}
        assert endpoints == {frozenset(("a", "b"))}

    def test_max_hops_filter(self):
        topo = grid_topology(3, 3)
        candidates = enumerate_candidate_paths(
            topo, [(0, 0), (2, 2)], max_hops=4, max_per_pair=50
        )
        assert all(p.num_hops <= 4 for p in candidates)

    def test_needs_two_monitors(self):
        with pytest.raises(ValidationError):
            enumerate_candidate_paths(paper_example_network(), ["M1"])


class TestRankGreedy:
    def test_reaches_full_rank_on_paper_network(self):
        topo = paper_example_network()
        candidates = enumerate_candidate_paths(topo, ["M1", "M2", "M3"], max_per_pair=30)
        selected = select_paths_rank_greedy(topo, candidates)
        assert LinearSystem(selected.routing_matrix()).rank == topo.num_links
        # Minimality of the greedy core: exactly rank many paths kept.
        assert selected.num_paths == topo.num_links

    def test_every_kept_path_was_necessary(self):
        topo = paper_example_network()
        candidates = enumerate_candidate_paths(topo, ["M1", "M2", "M3"], max_per_pair=30)
        selected = select_paths_rank_greedy(topo, candidates)
        matrix = selected.routing_matrix()
        full_rank = LinearSystem(matrix).rank
        for drop in range(matrix.shape[0]):
            reduced = np.delete(matrix, drop, axis=0)
            assert LinearSystem(reduced).rank < full_rank

    def test_target_rank_stops_early(self):
        topo = paper_example_network()
        candidates = enumerate_candidate_paths(topo, ["M1", "M2", "M3"], max_per_pair=30)
        selected = select_paths_rank_greedy(topo, candidates, target_rank=4)
        assert selected.num_paths == 4

    def test_duplicate_candidates_not_kept_twice(self):
        topo = path_topology(3)
        path = MeasurementPath(topo, [0, 1, 2])
        selected = select_paths_rank_greedy(topo, [path, path, path])
        assert selected.num_paths == 1


class TestSelectIdentifiable:
    def test_redundancy_rows_added(self):
        topo = paper_example_network()
        ps = select_identifiable_paths(topo, ["M1", "M2", "M3"], redundancy=4, rng=0)
        matrix = ps.routing_matrix()
        assert LinearSystem(matrix).rank == topo.num_links
        assert matrix.shape[0] == topo.num_links + 4

    def test_zero_redundancy(self):
        topo = paper_example_network()
        ps = select_identifiable_paths(topo, ["M1", "M2", "M3"], redundancy=0, rng=0)
        assert ps.num_paths == topo.num_links

    def test_negative_redundancy_rejected(self):
        with pytest.raises(ValidationError):
            select_identifiable_paths(
                paper_example_network(), ["M1", "M2"], redundancy=-1
            )

    def test_deterministic_for_seed(self):
        topo = paper_example_network()
        a = select_identifiable_paths(topo, ["M1", "M2", "M3"], rng=5)
        b = select_identifiable_paths(topo, ["M1", "M2", "M3"], rng=5)
        assert [p.nodes for p in a] == [p.nodes for p in b]

    def test_partial_rank_tolerated_by_default(self):
        topo = path_topology(4)
        ps = select_identifiable_paths(topo, [0, 3], rng=0)
        assert ps.num_paths >= 1
