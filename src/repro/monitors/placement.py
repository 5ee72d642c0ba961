"""Monitor placement strategies.

Three placements are provided:

- :func:`random_monitor_placement` — a uniform random node subset (baseline);
- :func:`incremental_identifiable_placement` — the experiment default: start
  from a random seed set and keep adding random monitors until the selected
  measurement paths identify as many links as requested (the paper's
  "random selection algorithm based on the minimum monitor placement rule");
- :func:`security_aware_placement` — the Section VI extension: among
  candidate identifiable placements, prefer the one minimising the maximum
  *node presence ratio* (fraction of measurement paths crossing any single
  non-monitor node), which bounds the manipulation power of any future
  single-node compromise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import MonitorPlacementError, ValidationError
from repro.routing.paths import PathSet
from repro.routing.selection import select_identifiable_paths
from repro.topology.graph import NodeId, Topology
from repro.utils.rng import ensure_rng

__all__ = [
    "PlacementResult",
    "random_monitor_placement",
    "incremental_identifiable_placement",
    "security_aware_placement",
    "max_node_presence_ratio",
]


@dataclass(frozen=True)
class PlacementResult:
    """A monitor placement together with its selected measurement paths.

    Attributes
    ----------
    monitors:
        The chosen monitor nodes (order is the selection order).
    path_set:
        Measurement paths selected for these monitors.
    identified_rank:
        Rank of the resulting routing matrix (== number of links when the
        placement achieves full identifiability).
    """

    monitors: tuple[NodeId, ...]
    path_set: PathSet
    identified_rank: int

    @property
    def fully_identifiable(self) -> bool:
        """True when every link metric is identifiable from the paths."""
        return self.identified_rank == self.path_set.topology.num_links


def random_monitor_placement(topology: Topology, count: int, *, rng: object = None) -> list[NodeId]:
    """Choose ``count`` distinct monitor nodes uniformly at random."""
    if count < 2:
        raise ValidationError(f"need at least 2 monitors, got {count}")
    if count > topology.num_nodes:
        raise MonitorPlacementError(
            f"cannot place {count} monitors on {topology.num_nodes} nodes"
        )
    generator = ensure_rng(rng)
    nodes = topology.nodes()
    picks = generator.choice(len(nodes), size=count, replace=False)
    return [nodes[int(i)] for i in picks]


def incremental_identifiable_placement(
    topology: Topology,
    *,
    initial_monitors: int = 3,
    max_monitors: int | None = None,
    min_rank_fraction: float = 1.0,
    redundancy: int = 3,
    max_per_pair: int = 20,
    rng: object = None,
) -> PlacementResult:
    """Grow a random monitor set until the path set identifies enough links.

    Starting from ``initial_monitors`` random monitors, repeatedly add one
    random non-monitor node and re-select paths, until the routing matrix
    rank reaches ``min_rank_fraction * num_links`` (default: full
    identifiability) or ``max_monitors`` is hit.  At ``max_monitors``
    (default: every node) the best-ranked placement seen is returned —
    monitoring everything always succeeds because every link then lies on a
    trivial two-node path.

    Raises :class:`MonitorPlacementError` only for impossible requests.
    """
    if not 0.0 < min_rank_fraction <= 1.0:
        raise ValidationError(f"min_rank_fraction must be in (0, 1], got {min_rank_fraction}")
    limit = topology.num_nodes if max_monitors is None else max_monitors
    if limit > topology.num_nodes:
        raise MonitorPlacementError(
            f"max_monitors={limit} exceeds node count {topology.num_nodes}"
        )
    if initial_monitors < 2 or initial_monitors > limit:
        raise ValidationError(
            f"initial_monitors must be in [2, {limit}], got {initial_monitors}"
        )
    generator = ensure_rng(rng)
    nodes = topology.nodes()
    order = list(range(len(nodes)))
    generator.shuffle(order)
    shuffled_nodes = [nodes[i] for i in order]

    target_rank = int(round(min_rank_fraction * topology.num_links))
    monitors = shuffled_nodes[:initial_monitors]
    remaining = shuffled_nodes[initial_monitors:]
    best: PlacementResult | None = None
    while True:
        path_set = select_identifiable_paths(
            topology,
            monitors,
            redundancy=redundancy,
            max_per_pair=max_per_pair,
            rng=generator,
        )
        # Local: monitors sit below tomography in the layer order (RP006).
        from repro.tomography.linear_system import LinearSystem

        rank = LinearSystem(path_set.routing_matrix()).rank
        result = PlacementResult(tuple(monitors), path_set, rank)
        if best is None or rank > best.identified_rank:
            best = result
        if rank >= target_rank or not remaining or len(monitors) >= limit:
            break
        monitors = monitors + [remaining.pop(0)]
    if best is None:
        raise MonitorPlacementError("placement search produced no candidate")
    return best


def max_node_presence_ratio(path_set: PathSet, *, exclude: set | None = None) -> float:
    """The largest fraction of paths any single node sits on.

    ``exclude`` typically holds the monitors themselves (endpoints are on
    every one of their own paths by construction).  This is the quantity
    Section VI proposes minimising: a compromised node's manipulation
    power grows with its presence ratio (Theorem 2).
    """
    if path_set.num_paths == 0:
        return 0.0
    skip = exclude or set()
    worst = 0.0
    for node in path_set.topology.nodes():
        if node in skip:
            continue
        count = len(path_set.paths_containing_node(node))
        worst = max(worst, count / path_set.num_paths)
    return worst


def security_aware_placement(
    topology: Topology,
    *,
    candidates: int = 10,
    initial_monitors: int = 3,
    max_monitors: int | None = None,
    redundancy: int = 3,
    rng: object = None,
) -> PlacementResult:
    """Sample identifiable placements and keep the most attack-resilient one.

    Draws ``candidates`` independent placements via
    :func:`incremental_identifiable_placement` and returns the one with the
    smallest maximum node presence ratio among fully identifiable samples
    (falling back to best rank when none identifies everything).  This is
    the monitor-placement-for-security idea from the paper's Section VI
    discussion, implemented as a randomized search.
    """
    if candidates < 1:
        raise ValidationError(f"candidates must be >= 1, got {candidates}")
    generator = ensure_rng(rng)
    best: PlacementResult | None = None
    best_score: tuple[float, float] | None = None
    for _ in range(candidates):
        result = incremental_identifiable_placement(
            topology,
            initial_monitors=initial_monitors,
            max_monitors=max_monitors,
            redundancy=redundancy,
            rng=generator,
        )
        ratio = max_node_presence_ratio(result.path_set, exclude=set(result.monitors))
        # Prefer full identifiability, then low presence ratio.
        score = (-float(result.identified_rank), ratio)
        if best_score is None or score < best_score:
            best, best_score = result, score
    if best is None:
        raise MonitorPlacementError("security-aware search produced no candidate")
    return best
