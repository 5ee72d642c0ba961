"""Tests for the presence-aware path selection (Section VI defence)."""

import pytest

from repro.exceptions import ValidationError
from repro.monitors.placement import max_node_presence_ratio
from repro.routing.selection import (
    select_identifiable_paths,
    select_paths_min_presence,
)
from repro.tomography.linear_system import LinearSystem
from repro.topology.generators.extra import fat_tree_topology
from repro.topology.generators.simple import grid_topology, paper_example_network


@pytest.fixture()
def grid_setup():
    topo = grid_topology(4, 4)
    monitors = [
        (0, 0), (0, 3), (3, 0), (3, 3), (1, 1), (2, 2), (0, 1),
        (1, 0), (2, 3), (3, 2), (0, 2), (2, 0), (1, 3), (3, 1),
    ]
    return topo, monitors


class TestMinPresenceSelection:
    def test_reaches_same_rank_as_plain(self, grid_setup):
        topo, monitors = grid_setup
        plain = select_identifiable_paths(topo, monitors, rng=0)
        flat = select_paths_min_presence(topo, monitors, rng=0)
        assert LinearSystem(flat.routing_matrix()).rank == LinearSystem(plain.routing_matrix()).rank
        assert LinearSystem(flat.routing_matrix()).rank == topo.num_links

    def test_lowers_max_presence_on_grid(self, grid_setup):
        topo, monitors = grid_setup
        plain = select_identifiable_paths(topo, monitors, rng=0)
        flat = select_paths_min_presence(topo, monitors, rng=0)
        assert max_node_presence_ratio(flat) < max_node_presence_ratio(plain)

    def test_lowers_max_presence_on_fat_tree(self):
        topo = fat_tree_topology(4)
        monitors = [n for n in topo.nodes() if n[0] in ("edge", "core")]
        plain = select_identifiable_paths(topo, monitors, rng=0)
        flat = select_paths_min_presence(topo, monitors, rng=0)
        assert max_node_presence_ratio(flat) < max_node_presence_ratio(plain)

    def test_redundancy_rows_added(self, grid_setup):
        topo, monitors = grid_setup
        flat = select_paths_min_presence(topo, monitors, redundancy=4, rng=0)
        assert flat.num_paths == topo.num_links + 4

    def test_zero_redundancy(self):
        topo = paper_example_network()
        flat = select_paths_min_presence(topo, ["M1", "M2", "M3"], redundancy=0, rng=0)
        assert flat.num_paths == topo.num_links
        assert LinearSystem(flat.routing_matrix()).rank == topo.num_links

    def test_no_duplicate_paths(self, grid_setup):
        topo, monitors = grid_setup
        flat = select_paths_min_presence(topo, monitors, rng=0)
        keys = [p.key() for p in flat]
        assert len(keys) == len(set(keys))

    def test_deterministic(self, grid_setup):
        topo, monitors = grid_setup
        a = select_paths_min_presence(topo, monitors, rng=5)
        b = select_paths_min_presence(topo, monitors, rng=5)
        assert [p.nodes for p in a] == [p.nodes for p in b]

    def test_negative_redundancy_rejected(self, grid_setup):
        topo, monitors = grid_setup
        with pytest.raises(ValidationError):
            select_paths_min_presence(topo, monitors, redundancy=-1)
