"""Declarative parameter-grid sweeps over scapegoating scenarios.

The sweep engine runs the paper's experiment grids — strategy x topology
x attacker count — from a single JSON spec:

- :mod:`repro.sweep.spec` — the spec schema, topology registry, and
  deterministic grid expansion (every point carries a config digest);
- :mod:`repro.sweep.cache` — shared-work caches (one ``LinearSystem``
  factorisation per distinct routing matrix, reusable LP base blocks,
  shared auditors);
- :mod:`repro.sweep.runner` — sharded, resumable execution with
  append-only JSONL checkpoints;
- :mod:`repro.sweep.aggregate` — folding results into report tables.

CLI entry point: ``repro sweep <spec.json> [--workers N] [--resume]``.
"""

from repro.sweep.aggregate import aggregate_rows, load_results
from repro.sweep.cache import FactorizationCache
from repro.sweep.runner import run_grid_point, run_sweep
from repro.sweep.spec import GridPoint, SweepSpec, build_topology

__all__ = [
    "FactorizationCache",
    "GridPoint",
    "SweepSpec",
    "aggregate_rows",
    "build_topology",
    "load_results",
    "run_grid_point",
    "run_sweep",
]
