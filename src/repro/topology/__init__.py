"""Network topology substrate.

This package provides the graph type used throughout the library
(:class:`~repro.topology.graph.Topology`), topology generators (the paper's
Fig. 1 example, canonical families, synthetic Rocketfuel-style ISP maps and
random geometric graphs), structural analysis helpers, and serialization.

The topology type is deliberately small and explicit: undirected simple
graphs with a *stable link indexing*, because network tomography identifies
links by their column index in the routing matrix.
"""

from repro.topology.analysis import (
    degree_histogram,
    is_connected,
    link_cut_between,
    node_connectivity_summary,
)
from repro.topology.generators import (
    clique_topology,
    fat_tree_topology,
    grid_topology,
    ladder_topology,
    paper_example_network,
    path_topology,
    random_geometric_topology,
    ring_topology,
    star_topology,
    synthetic_rocketfuel,
    tree_topology,
    waxman_topology,
)
from repro.topology.graph import Link, Topology
from repro.topology.serialization import (
    topology_from_edge_list,
    topology_from_json,
    topology_to_edge_list,
    topology_to_json,
)

__all__ = [
    "Link",
    "Topology",
    "degree_histogram",
    "is_connected",
    "link_cut_between",
    "node_connectivity_summary",
    "topology_from_edge_list",
    "topology_from_json",
    "topology_to_edge_list",
    "topology_to_json",
    "clique_topology",
    "fat_tree_topology",
    "waxman_topology",
    "grid_topology",
    "ladder_topology",
    "paper_example_network",
    "path_topology",
    "random_geometric_topology",
    "ring_topology",
    "star_topology",
    "synthetic_rocketfuel",
    "tree_topology",
]
