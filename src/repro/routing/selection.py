"""Measurement-path selection.

Monitors do not enumerate every possible path (footnote 1 of the paper);
they choose enough paths to make link metrics identifiable.  This module
provides:

- :func:`enumerate_candidate_paths` — candidate simple paths between all
  monitor pairs (exhaustive on small graphs, k-shortest on larger ones);
- :func:`select_paths_rank_greedy` — greedy selection of candidates that
  raise the rank of ``R`` until it is as large as achievable;
- :func:`select_identifiable_paths` — the full pipeline used by the
  experiments: randomised candidate order (the paper's "random selection
  algorithm based on the minimum monitor placement rule"), rank-greedy
  core, plus *redundant* extra paths so the detector of Section IV-B has
  consistency rows to check (a square ``R`` would be blind — Theorem 3).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import NoPathError, ValidationError
from repro.routing.ksp import all_simple_paths, k_shortest_paths
from repro.routing.paths import MeasurementPath, PathSet
from repro.topology.graph import NodeId, Topology
from repro.utils.rng import ensure_rng

__all__ = [
    "enumerate_candidate_paths",
    "select_paths_rank_greedy",
    "select_identifiable_paths",
    "select_paths_min_presence",
]

#: Above this many links we switch from exhaustive enumeration to k-shortest.
_EXHAUSTIVE_LINK_LIMIT = 16


def enumerate_candidate_paths(
    topology: Topology,
    monitors: Sequence[NodeId],
    *,
    max_per_pair: int = 20,
    max_hops: int | None = None,
    exhaustive: bool | None = None,
    pair_budget: int | None = None,
    rng: object = None,
) -> list[MeasurementPath]:
    """Candidate measurement paths between every unordered monitor pair.

    On small topologies (or with ``exhaustive=True``) all simple paths up to
    ``max_hops`` are enumerated per pair, capped at ``max_per_pair`` in
    shortest-first order; otherwise Yen's k-shortest paths supply up to
    ``max_per_pair`` candidates per pair.  Monitor pairs in different
    components contribute nothing (no error), matching how an operator
    would simply not measure between them.

    ``pair_budget`` caps how many monitor pairs are searched at all: when
    the number of unordered pairs exceeds it, a seeded sample of pairs is
    drawn (without replacement) from ``rng``.  This is what keeps
    enumeration tractable on ISP-scale topologies, where the quadratic
    pair count — not per-pair path search — dominates; operators likewise
    measure a budgeted subset of monitor pairs rather than all of them.
    """
    if len(set(monitors)) < 2:
        raise ValidationError("need at least two distinct monitors")
    if max_per_pair < 1:
        raise ValidationError(f"max_per_pair must be >= 1, got {max_per_pair}")
    if pair_budget is not None and pair_budget < 1:
        raise ValidationError(f"pair_budget must be >= 1 or None, got {pair_budget}")
    use_exhaustive = (
        exhaustive if exhaustive is not None else topology.num_links <= _EXHAUSTIVE_LINK_LIMIT
    )
    monitor_list = list(dict.fromkeys(monitors))
    pairs = [
        (monitor_list[a], monitor_list[b])
        for a in range(len(monitor_list))
        for b in range(a + 1, len(monitor_list))
    ]
    if pair_budget is not None and len(pairs) > pair_budget:
        generator = ensure_rng(rng)
        picks = generator.choice(len(pairs), size=pair_budget, replace=False)
        # Keep canonical pair order so only membership — not sequencing —
        # depends on the draw.
        pairs = [pairs[i] for i in sorted(int(p) for p in picks)]
    candidates: list[MeasurementPath] = []
    for source, target in pairs:
        try:
            if use_exhaustive:
                sequences = sorted(
                    all_simple_paths(topology, source, target, max_hops=max_hops),
                    key=len,
                )[:max_per_pair]
            else:
                sequences = k_shortest_paths(topology, source, target, max_per_pair)
                if max_hops is not None:
                    sequences = [seq for seq in sequences if len(seq) - 1 <= max_hops]
        except NoPathError:
            continue
        candidates.extend(MeasurementPath(topology, seq) for seq in sequences)
    return candidates


def select_paths_rank_greedy(
    topology: Topology,
    candidates: Sequence[MeasurementPath],
    *,
    target_rank: int | None = None,
) -> PathSet:
    """Greedily keep candidates that increase the rank of ``R``.

    Scans ``candidates`` in order, appending a path iff it raises the rank
    of the running routing matrix, and stops early once ``target_rank``
    (default: the number of links) is reached.  Rank growth is tracked
    incrementally with Gram-Schmidt (O(rank x num_links) per candidate),
    which keeps selection fast on ISP-scale topologies with thousands of
    candidate paths.
    """
    goal = topology.num_links if target_rank is None else target_rank
    selected = PathSet(topology)
    if goal == 0:
        return selected
    # Orthonormal basis of the row space accumulated so far.
    basis = np.zeros((0, topology.num_links))
    for path in candidates:
        row = np.zeros(topology.num_links)
        row[list(path.link_indices)] = 1.0
        residual = row - basis.T @ (basis @ row) if basis.shape[0] else row.copy()
        norm = float(np.linalg.norm(residual))
        # Re-orthogonalise once for numerical robustness (classic
        # Gram-Schmidt can lose orthogonality on near-dependent rows).
        if norm > 1e-12 and basis.shape[0]:
            residual = residual - basis.T @ (basis @ residual)
            norm = float(np.linalg.norm(residual))
        if norm > 1e-8:
            basis = np.vstack([basis, residual / norm])
            selected.append(path)
            if basis.shape[0] >= goal:
                break
    return selected


def select_identifiable_paths(
    topology: Topology,
    monitors: Sequence[NodeId],
    *,
    redundancy: int = 3,
    max_per_pair: int = 20,
    max_hops: int | None = None,
    pair_budget: int | None = None,
    rng: object = None,
) -> PathSet:
    """Select a measurement path set for the given monitors.

    Pipeline: enumerate candidates per monitor pair (optionally over a
    seeded ``pair_budget``-sized sample of pairs — see
    :func:`enumerate_candidate_paths`), shuffle them (the randomised
    selection the paper's experiments use), keep a rank-greedy core, then
    append up to ``redundancy`` additional distinct paths that do *not*
    increase rank — these redundant rows are what give the scapegoating
    detector its consistency checks.
    """
    if redundancy < 0:
        raise ValidationError(f"redundancy must be >= 0, got {redundancy}")
    generator = ensure_rng(rng)
    candidates = enumerate_candidate_paths(
        topology,
        monitors,
        max_per_pair=max_per_pair,
        max_hops=max_hops,
        pair_budget=pair_budget,
        rng=generator,
    )
    order = list(range(len(candidates)))
    generator.shuffle(order)
    shuffled = [candidates[i] for i in order]

    core = select_paths_rank_greedy(topology, shuffled)
    chosen = {path.key() for path in core}
    extras_added = 0
    for path in shuffled:
        if extras_added >= redundancy:
            break
        if path.key() in chosen:
            continue
        core.append(path)
        chosen.add(path.key())
        extras_added += 1
    return core


def select_paths_min_presence(
    topology: Topology,
    monitors: Sequence[NodeId],
    *,
    redundancy: int = 3,
    max_per_pair: int = 20,
    max_hops: int | None = None,
    rng: object = None,
) -> PathSet:
    """Rank-greedy selection that also minimises node presence ratios.

    The security-aware counterpart of :func:`select_identifiable_paths`
    (Section VI of the paper): among the candidates that would raise the
    rank of ``R``, each step picks the one keeping the *node load* (how
    many selected paths each node sits on) as flat as possible — first
    minimising the resulting maximum load, then the sum of squared loads.
    A compromised node's manipulation power grows with its presence ratio
    (Theorem 2), so flat loads bound the damage of any single future
    compromise at the path-selection level, complementing the
    placement-level defence in :mod:`repro.monitors.placement`.

    Redundant rows (needed by the consistency detector) are appended with
    the same load-aware preference.
    """
    if redundancy < 0:
        raise ValidationError(f"redundancy must be >= 0, got {redundancy}")
    generator = ensure_rng(rng)
    candidates = enumerate_candidate_paths(
        topology, monitors, max_per_pair=max_per_pair, max_hops=max_hops
    )
    order = list(range(len(candidates)))
    generator.shuffle(order)
    remaining = [candidates[i] for i in order]

    selected = PathSet(topology)
    basis = np.zeros((0, topology.num_links))
    load: dict[NodeId, int] = {node: 0 for node in topology.nodes()}

    def residual_norm(path: MeasurementPath) -> float:
        row = np.zeros(topology.num_links)
        row[list(path.link_indices)] = 1.0
        if basis.shape[0]:
            row = row - basis.T @ (basis @ row)
        return float(np.linalg.norm(row))

    def load_score(path: MeasurementPath) -> tuple[int, int]:
        peak = 0
        sum_sq = 0
        touched = set(path.nodes)
        for node, count in load.items():
            after = count + (1 if node in touched else 0)
            peak = max(peak, after)
            sum_sq += after * after
        return (peak, sum_sq)

    # Phase 1: identifiability with flat loads.
    while basis.shape[0] < topology.num_links and remaining:
        best = None
        best_key = None
        for path in remaining:
            if residual_norm(path) <= 1e-8:
                continue
            key = load_score(path)
            if best_key is None or key < best_key:
                best, best_key = path, key
        if best is None:
            break
        row = np.zeros(topology.num_links)
        row[list(best.link_indices)] = 1.0
        if basis.shape[0]:
            row = row - basis.T @ (basis @ row)
        row = row / np.linalg.norm(row)
        basis = np.vstack([basis, row])
        selected.append(best)
        for node in best.nodes:
            load[node] += 1
        remaining = [p for p in remaining if p is not best]

    # Phase 2: redundancy rows, still load-aware, no duplicates.
    chosen = {path.key() for path in selected}
    for _ in range(redundancy):
        best = None
        best_key = None
        for path in remaining:
            if path.key() in chosen:
                continue
            key = load_score(path)
            if best_key is None or key < best_key:
                best, best_key = path, key
        if best is None:
            break
        selected.append(best)
        chosen.add(best.key())
        for node in best.nodes:
            load[node] += 1
        remaining = [p for p in remaining if p is not best]
    return selected
