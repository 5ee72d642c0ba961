"""Topology generators.

- :mod:`repro.topology.generators.simple` — the paper's Fig. 1 example
  network and canonical families (path/ring/star/grid/tree/clique/ladder).
- :mod:`repro.topology.generators.isp` — synthetic Rocketfuel-style ISP
  topologies (the wireline substrate standing in for the AS1221 dataset) and
  a parser for real Rocketfuel edge lists.
- :mod:`repro.topology.generators.geometric` — random geometric graphs in
  the extended-network mode used by the paper's wireless experiments.
"""

from repro.topology.generators.extra import fat_tree_topology, waxman_topology
from repro.topology.generators.geometric import random_geometric_topology
from repro.topology.generators.isp import (
    barabasi_albert_topology,
    large_isp_topology,
    load_rocketfuel_edges,
    synthetic_rocketfuel,
)
from repro.topology.generators.simple import (
    clique_topology,
    grid_topology,
    ladder_topology,
    paper_example_network,
    path_topology,
    ring_topology,
    star_topology,
    tree_topology,
)

__all__ = [
    "clique_topology",
    "grid_topology",
    "ladder_topology",
    "paper_example_network",
    "path_topology",
    "ring_topology",
    "star_topology",
    "tree_topology",
    "barabasi_albert_topology",
    "large_isp_topology",
    "load_rocketfuel_edges",
    "synthetic_rocketfuel",
    "random_geometric_topology",
    "fat_tree_topology",
    "waxman_topology",
]
