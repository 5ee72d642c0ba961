"""Routing substrate: measurement paths and routing matrices.

Network tomography measures end-to-end paths between monitors and inverts
the linear system ``y = R x``.  This package provides:

- :class:`~repro.routing.paths.MeasurementPath` and
  :class:`~repro.routing.paths.PathSet` — validated node-sequence paths with
  link resolution against a topology;
- :mod:`~repro.routing.ksp` — shortest path and Yen's k-shortest simple
  paths, implemented from scratch;
- :mod:`~repro.routing.routing_matrix` — the identifiability report of the
  0/1 measurement matrix ``R`` that :meth:`PathSet.routing_matrix` builds;
- :mod:`~repro.routing.selection` — candidate-path enumeration and the
  rank-greedy selection that gives monitors an identifiable path set, with
  optional redundancy (rows beyond rank) that the scapegoating detector
  needs (Theorem 3: a square ``R`` makes attacks undetectable).
"""

from repro.routing.ksp import all_simple_paths, k_shortest_paths, shortest_path
from repro.routing.paths import MeasurementPath, PathSet
from repro.routing.routing_matrix import identifiability_report
from repro.routing.selection import (
    enumerate_candidate_paths,
    select_identifiable_paths,
    select_paths_min_presence,
    select_paths_rank_greedy,
)

__all__ = [
    "MeasurementPath",
    "PathSet",
    "all_simple_paths",
    "k_shortest_paths",
    "shortest_path",
    "identifiability_report",
    "enumerate_candidate_paths",
    "select_identifiable_paths",
    "select_paths_min_presence",
    "select_paths_rank_greedy",
]
