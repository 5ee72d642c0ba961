"""Shortest paths and Yen's k-shortest simple paths, from scratch.

Monitors with controllable routing pick probe routes explicitly; candidate
routes come from shortest / near-shortest simple paths between monitor
pairs.  Hop count is the metric (every link has unit cost), which matches
the path-selection practice of the identifiability literature the paper
builds on.

Tie rule: among equally short paths, :func:`shortest_path` returns the
one a FIFO breadth-first search finds when it walks each node's links in
insertion order (:meth:`Topology.incidence`) and fixes a node's parent
the first time it discovers the node.  :func:`k_shortest_paths` breaks
ties between equally long candidates by the order Yen's spur searches
produced them.  Both rules are part of the output contract: the chosen
paths fix the routing matrix, so a different tie-break changes R.

Also provides an exhaustive simple-path enumerator (depth-first, lazily
yielded) used on small topologies such as the paper's Fig. 1 network.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterator

from repro.exceptions import NoPathError, ValidationError
from repro.topology.graph import NodeId, Topology

__all__ = ["shortest_path", "k_shortest_paths", "all_simple_paths"]


def shortest_path(
    topology: Topology,
    source: NodeId,
    target: NodeId,
    *,
    banned_nodes: frozenset = frozenset(),
    banned_links: frozenset = frozenset(),
) -> list[NodeId]:
    """Minimum-hop path from ``source`` to ``target`` as a node list.

    ``banned_nodes`` / ``banned_links`` (link indices) are excluded — this
    is the spur computation Yen's algorithm needs.  Raises
    :class:`NoPathError` when no path survives the bans.

    The search is a FIFO breadth-first search over the topology's
    link-insertion-order adjacency.  A node's parent is the first
    dequeued node that reaches it, so of several equally short paths the
    one returned is the first the search discovers.  Stopping when the
    target is first discovered is exact: every node on the path back from
    the target was dequeued earlier, so its parent was already fixed, and
    nodes dequeued later cannot change a parent that is set.
    """
    if not topology.has_node(source):
        raise NoPathError(source, target)
    if not topology.has_node(target):
        raise NoPathError(source, target)
    if source in banned_nodes or target in banned_nodes:
        raise NoPathError(source, target)
    if source == target:
        raise ValidationError("source and target must differ for a measurement path")

    adjacency = topology.incidence()
    parent: dict[NodeId, NodeId] = {source: source}
    frontier: deque[NodeId] = deque([source])
    while frontier:
        node = frontier.popleft()
        for link_index, neighbor in adjacency[node]:
            if neighbor in parent or link_index in banned_links or neighbor in banned_nodes:
                continue
            parent[neighbor] = node
            if neighbor == target:
                path = [target]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            frontier.append(neighbor)
    raise NoPathError(source, target)


def k_shortest_paths(
    topology: Topology, source: NodeId, target: NodeId, k: int
) -> list[list[NodeId]]:
    """Yen's algorithm: up to ``k`` shortest *simple* paths by hop count.

    Returns fewer than ``k`` paths when the graph does not contain that many
    simple paths.  The first entry is the shortest path; subsequent entries
    are non-decreasing in length.  Raises :class:`NoPathError` when the
    endpoints are disconnected.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    first = shortest_path(topology, source, target)
    accepted: list[list[NodeId]] = [first]
    accepted_links: list[list[int]] = [_link_indices(topology, first)]
    # Candidate heap entries: (length, insertion order, path).
    candidates: list[tuple[int, int, list[NodeId]]] = []
    seen: set[tuple] = {tuple(first)}
    counter = 0

    while len(accepted) < k:
        prev_path = accepted[-1]
        # Accepted paths whose first ``spur_index + 1`` nodes are the root
        # ``prev_path[: spur_index + 1]``; narrowed by one hop per spur.
        sharing = list(zip(accepted, accepted_links))
        for spur_index, spur_node in enumerate(prev_path[:-1]):
            sharing = [entry for entry in sharing if entry[0][spur_index] == spur_node]
            try:
                spur = shortest_path(
                    topology,
                    spur_node,
                    target,
                    banned_nodes=frozenset(prev_path[:spur_index]),
                    banned_links=frozenset(links[spur_index] for _, links in sharing),
                )
            except NoPathError:
                continue
            total = prev_path[:spur_index] + spur
            key = tuple(total)
            if key not in seen:
                seen.add(key)
                counter += 1
                heapq.heappush(candidates, (len(total) - 1, counter, total))
        if not candidates:
            break
        _, _, best = heapq.heappop(candidates)
        accepted.append(best)
        accepted_links.append(_link_indices(topology, best))
    return accepted


def _link_indices(topology: Topology, path: list[NodeId]) -> list[int]:
    """Index of each link along ``path``, in path order."""
    return [topology.link_between(u, v).index for u, v in zip(path, path[1:])]


def all_simple_paths(
    topology: Topology,
    source: NodeId,
    target: NodeId,
    *,
    max_hops: int | None = None,
) -> Iterator[list[NodeId]]:
    """Lazily enumerate every simple path from ``source`` to ``target``.

    Depth-first with an optional hop cutoff; order is deterministic
    (adjacency in link-insertion order).  Intended for small topologies —
    the count is exponential in general.
    """
    if not topology.has_node(source) or not topology.has_node(target):
        raise NoPathError(source, target)
    if source == target:
        raise ValidationError("source and target must differ")
    limit = max_hops if max_hops is not None else topology.num_nodes - 1
    if limit < 1:
        return

    path: list[NodeId] = [source]
    on_path: set[NodeId] = {source}
    stack: list[Iterator[NodeId]] = [iter(topology.neighbors(source))]
    while stack:
        children = stack[-1]
        advanced = False
        for child in children:
            if child in on_path:
                continue
            if child == target:
                yield path + [target]
                continue
            if len(path) < limit:
                path.append(child)
                on_path.add(child)
                stack.append(iter(topology.neighbors(child)))
                advanced = True
                break
        if not advanced:
            stack.pop()
            removed = path.pop()
            on_path.discard(removed)
