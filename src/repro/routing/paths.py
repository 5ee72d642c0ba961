"""Measurement paths and path sets.

A measurement path is the route a probe packet takes between two monitors.
Monitors in network tomography control probe routing (source routing /
SDN-installed routes — Section II-A of the paper), so a path here is an
explicit node sequence, validated link-by-link against the topology.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import InvalidPathError, ValidationError
from repro.topology.graph import NodeId, Topology

__all__ = ["MeasurementPath", "PathSet"]


class MeasurementPath:
    """A simple path through the topology, resolved to link indices.

    Parameters
    ----------
    topology:
        The topology the path lives in.
    nodes:
        The node sequence, starting and ending at (distinct) monitors.  The
        sequence must be a *simple* path: consecutive nodes adjacent, no
        repeated nodes.

    >>> from repro.topology import paper_example_network
    >>> topo = paper_example_network()
    >>> p = MeasurementPath(topo, ["M1", "A", "C", "D", "M2"])
    >>> p.link_indices
    (0, 3, 6, 9)
    >>> p.contains_node("C"), p.contains_node("B")
    (True, False)
    """

    __slots__ = ("_nodes", "_link_indices", "_node_set")

    def __init__(self, topology: Topology, nodes: Sequence[NodeId]) -> None:
        node_list = list(nodes)
        if len(node_list) < 2:
            raise InvalidPathError(f"a path needs at least 2 nodes, got {len(node_list)}")
        if len(set(node_list)) != len(node_list):
            raise InvalidPathError(f"path visits a node twice: {node_list!r}")
        links = []
        for u, v in zip(node_list, node_list[1:]):
            if not topology.has_link(u, v):
                raise InvalidPathError(f"nodes {u!r} and {v!r} are not adjacent in the topology")
            links.append(topology.link_between(u, v).index)
        self._nodes: tuple[NodeId, ...] = tuple(node_list)
        self._link_indices: tuple[int, ...] = tuple(links)
        self._node_set = frozenset(node_list)

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """The node sequence, source first."""
        return self._nodes

    @property
    def link_indices(self) -> tuple[int, ...]:
        """Indices of the links traversed, in traversal order."""
        return self._link_indices

    @property
    def source(self) -> NodeId:
        """First node (the probing monitor)."""
        return self._nodes[0]

    @property
    def target(self) -> NodeId:
        """Last node (the receiving monitor)."""
        return self._nodes[-1]

    @property
    def num_hops(self) -> int:
        """Number of links traversed."""
        return len(self._link_indices)

    @property
    def interior_nodes(self) -> tuple[NodeId, ...]:
        """Nodes strictly between the endpoints."""
        return self._nodes[1:-1]

    def contains_node(self, node: NodeId) -> bool:
        """True when ``node`` lies anywhere on the path (endpoints included)."""
        return node in self._node_set

    def contains_any_node(self, nodes: Iterable[NodeId]) -> bool:
        """True when any of ``nodes`` lies on the path."""
        return any(node in self._node_set for node in nodes)

    def contains_link(self, link_index: int) -> bool:
        """True when the path traverses the link with index ``link_index``."""
        return link_index in self._link_indices

    def contains_any_link(self, link_indices: Iterable[int]) -> bool:
        """True when the path traverses any of the given links."""
        mine = set(self._link_indices)
        return any(index in mine for index in link_indices)

    def reversed(self, topology: Topology) -> "MeasurementPath":
        """The same route traversed in the opposite direction."""
        return MeasurementPath(topology, list(reversed(self._nodes)))

    def key(self) -> tuple:
        """Direction-insensitive identity (a path equals its reverse)."""
        fwd = self._nodes
        rev = tuple(reversed(self._nodes))
        return min(fwd, rev, key=repr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MeasurementPath):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        route = " -> ".join(str(node) for node in self._nodes)
        return f"<MeasurementPath {route}>"


class PathSet:
    """An ordered collection of measurement paths over one topology.

    The order is significant: path *i* is row *i* of the routing matrix and
    entry *i* of measurement vectors.  The class offers the membership
    queries that attack and detection code needs (which paths cross a node
    set, which paths cross a link set).  Those queries answer from
    inverted link/node indices, and :meth:`routing_matrix` from a shared
    array; each is built on first use, and again on the first use after
    an :meth:`append`/:meth:`remove`.
    """

    def __init__(self, topology: Topology, paths: Iterable[MeasurementPath] = ()) -> None:
        self.topology = topology
        self._paths: list[MeasurementPath] = []
        self._version = 0
        # Derived state (routing matrix, inverted indices): name ->
        # (version it was built at, value).  Stale entries are rebuilt on
        # the first read after a mutation.
        self._derived: dict[str, tuple[int, object]] = {}
        for path in paths:
            self.append(path)

    @classmethod
    def from_node_sequences(
        cls, topology: Topology, sequences: Iterable[Sequence[NodeId]]
    ) -> "PathSet":
        """Build a path set from raw node sequences, validating each."""
        return cls(topology, (MeasurementPath(topology, seq) for seq in sequences))

    def append(self, path: MeasurementPath) -> None:
        """Append ``path`` (validated to belong to this topology's links)."""
        for index in path.link_indices:
            # Raises LinkNotFoundError if the index is out of range.
            self.topology.link(index)
        self._paths.append(path)
        self._version += 1

    def remove(self, index: int) -> MeasurementPath:
        """Remove and return the path at row ``index`` (churn event).

        Later rows shift up by one — exactly the row deletion that
        :meth:`~repro.tomography.linear_system.LinearSystem.evolve`
        applies to the routing matrix.
        """
        if not 0 <= index < len(self._paths):
            raise ValidationError(f"path index {index} out of range [0, {len(self._paths)})")
        self._version += 1
        return self._paths.pop(index)

    @property
    def version(self) -> int:
        """Mutation counter: bumps on every append/remove.

        The path set's own derived state, the scenario's shared system
        and the sweep engine's per-scenario memo compare this to detect
        that the paths churned underneath them and what they hold went
        stale.
        """
        return self._version

    @property
    def num_paths(self) -> int:
        """Number of measurement paths ``|P|``."""
        return len(self._paths)

    def paths(self) -> list[MeasurementPath]:
        """All paths in row order (fresh list)."""
        return list(self._paths)

    def path(self, index: int) -> MeasurementPath:
        """Path at row ``index``."""
        if not 0 <= index < len(self._paths):
            raise ValidationError(f"path index {index} out of range [0, {len(self._paths)})")
        return self._paths[index]

    def paths_containing_node(self, node: NodeId) -> list[int]:
        """Row indices of paths passing through ``node`` (ascending, fresh list)."""
        return list(self._node_rows().get(node, ()))

    def paths_containing_any_node(self, nodes: Iterable[NodeId]) -> list[int]:
        """Row indices of paths passing through any node in ``nodes``."""
        index = self._node_rows()
        return sorted(set().union(*(index.get(node, ()) for node in set(nodes))))

    def paths_containing_link(self, link_index: int) -> list[int]:
        """Row indices of paths traversing the given link (ascending, fresh list)."""
        return list(self._link_rows().get(link_index, ()))

    def paths_containing_any_link(self, link_indices: Iterable[int]) -> list[int]:
        """Row indices of paths traversing any of the given links."""
        index = self._link_rows()
        return sorted(set().union(*(index.get(link, ()) for link in set(link_indices))))

    def measured_links(self) -> tuple[int, ...]:
        """Ascending indices of the links on at least one path (memoised per version)."""
        return self._cached("measured_links", lambda: tuple(sorted(self._link_rows())))

    def _cached(self, name: str, build):
        """``build()`` memoised for the current :attr:`version`."""
        entry = self._derived.get(name)
        if entry is None or entry[0] != self._version:
            entry = (self._version, build())
            self._derived[name] = entry
        return entry[1]

    def _link_rows(self) -> dict[int, list[int]]:
        """Inverted index link -> ascending rows of the paths traversing it."""
        return self._cached(
            "link_rows", lambda: _inverted(p.link_indices for p in self._paths)
        )

    def _node_rows(self) -> dict[NodeId, list[int]]:
        """Inverted index node -> ascending rows of the paths visiting it."""
        return self._cached("node_rows", lambda: _inverted(p.nodes for p in self._paths))

    def monitor_pairs(self) -> set[frozenset]:
        """The set of unordered endpoint pairs covered by the paths."""
        return {frozenset((path.source, path.target)) for path in self._paths}

    def routing_matrix(self) -> np.ndarray:
        """The 0/1 measurement matrix ``R`` (|P| x |L|), float dtype.

        ``R[i, j] = 1`` iff path ``i`` traverses link ``j`` — eq. (1) of the
        paper.  Float dtype because the matrix immediately enters numerical
        linear algebra.  Built once per :attr:`version` and shared by every
        caller, so the array is read-only: copy it before writing.
        """
        return self._cached("routing_matrix", self._build_routing_matrix)

    def _build_routing_matrix(self) -> np.ndarray:
        rows, cols = self._incidence_indices()
        matrix = np.zeros((len(self._paths), self.topology.num_links), dtype=float)
        matrix[rows, cols] = 1.0
        matrix.flags.writeable = False
        return matrix

    def sparse_routing_matrix(self) -> "scipy.sparse.csr_matrix":
        """``R`` as ``scipy.sparse.csr_matrix`` — same entries, CSR storage.

        The form the sparse tomography backend consumes directly; at
        ISP scale this skips materialising the (mostly zero) dense array
        entirely.
        """
        import scipy.sparse

        rows, cols = self._incidence_indices()
        data = np.ones(rows.size, dtype=float)
        matrix = scipy.sparse.csr_matrix(
            (data, (rows, cols)),
            shape=(len(self._paths), self.topology.num_links),
        )
        # CSR assembly sums duplicate coordinates; the dense builder's
        # assignment is idempotent — keep the two representations equal.
        matrix.sum_duplicates()
        matrix.data.fill(1.0)
        return matrix

    def _incidence_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, col) index arrays of the path-link incidences, in path order.

        Built with ``np.repeat`` over per-path link counts — no per-entry
        Python loop, which dominates matrix construction at ISP scale.
        """
        counts = np.fromiter(
            (len(path.link_indices) for path in self._paths),
            dtype=np.intp,
            count=len(self._paths),
        )
        rows = np.repeat(np.arange(len(self._paths), dtype=np.intp), counts)
        cols = np.fromiter(
            (j for path in self._paths for j in path.link_indices),
            dtype=np.intp,
            count=int(counts.sum()),
        )
        return rows, cols

    def __iter__(self) -> Iterator[MeasurementPath]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PathSet: {len(self._paths)} paths over {self.topology!r}>"


def _inverted(members: Iterable[Iterable]) -> dict:
    """``key -> ascending rows`` over per-row member sequences."""
    index: dict = {}
    for row, keys in enumerate(members):
        for key in set(keys):
            index.setdefault(key, []).append(row)
    return index
