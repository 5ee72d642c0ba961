"""The :class:`Topology` graph type.

Network tomography operates on an undirected simple graph
``G = (V, L)`` (Section II-A of the paper): at most one link between any two
distinct nodes and no self-loops.  Each link carries a stable integer index,
``0 .. |L|-1`` in insertion order, which is the column index of that link in
every routing matrix built from the topology.  Keeping the indexing inside
the graph type (instead of recomputing it ad hoc) is what makes link-metric
vectors, estimates, and attack victim sets unambiguous across the library.

Nodes may be any hashable labels; the paper's examples use strings such as
``"M1"``, ``"A"``, ``"B"``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass

from repro.exceptions import (
    LinkNotFoundError,
    NodeNotFoundError,
    TopologyError,
)

__all__ = ["Link", "Topology", "NodeId"]

NodeId = Hashable


@dataclass(frozen=True)
class Link:
    """An undirected link with a stable index.

    ``endpoints`` is stored as the pair in the order the link was added; the
    link itself is undirected, and :meth:`key` gives an order-independent
    identity.  The ``index`` is the link's column in routing matrices and its
    position in link-metric vectors.
    """

    index: int
    u: NodeId
    v: NodeId

    @property
    def endpoints(self) -> tuple[NodeId, NodeId]:
        """The two endpoint node labels, in insertion order."""
        return (self.u, self.v)

    def key(self) -> frozenset:
        """Order-independent identity of the link's endpoints."""
        return frozenset((self.u, self.v))

    def other(self, node: NodeId) -> NodeId:
        """Return the endpoint opposite ``node``.

        Raises :class:`ValueError` when ``node`` is not an endpoint.
        """
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node!r} is not an endpoint of link {self.index}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"l{self.index}({self.u}-{self.v})"


class Topology:
    """An undirected simple graph with indexed links.

    The class supports incremental construction (:meth:`add_node`,
    :meth:`add_link`) and read access used by routing, tomography and attack
    code.  It intentionally does *not* support link removal: removing links
    would invalidate the stable link indexing that metric vectors depend on.
    Build a new topology (or use :meth:`subgraph`) instead.

    >>> topo = Topology()
    >>> topo.add_link("a", "b")
    Link(index=0, u='a', v='b')
    >>> topo.add_link("b", "c")
    Link(index=1, u='b', v='c')
    >>> topo.num_nodes, topo.num_links
    (3, 2)
    >>> topo.link_between("c", "b").index
    1
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._nodes: dict[NodeId, int] = {}
        self._links: list[Link] = []
        self._link_by_key: dict[frozenset, Link] = {}
        # node -> [(link index, neighbour), ...] in link-insertion order.
        self._adjacency: dict[NodeId, list[tuple[int, NodeId]]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Add ``node`` if not already present (idempotent)."""
        if node is None:
            raise TopologyError("None is not a valid node label")
        if node not in self._nodes:
            self._nodes[node] = len(self._nodes)
            self._adjacency[node] = []

    def add_nodes(self, nodes: Iterable[NodeId]) -> None:
        """Add every node in ``nodes`` (idempotent per node)."""
        for node in nodes:
            self.add_node(node)

    def add_link(self, u: NodeId, v: NodeId) -> Link:
        """Add an undirected link between ``u`` and ``v`` and return it.

        Endpoints are added as nodes if missing.  Raises
        :class:`TopologyError` on self-loops or duplicate links, preserving
        the paper's simple-graph assumption.
        """
        if u == v:
            raise TopologyError(f"self-loop at node {u!r} is not allowed")
        key = frozenset((u, v))
        if key in self._link_by_key:
            raise TopologyError(f"duplicate link between {u!r} and {v!r}")
        self.add_node(u)
        self.add_node(v)
        link = Link(index=len(self._links), u=u, v=v)
        self._links.append(link)
        self._link_by_key[key] = link
        self._adjacency[u].append((link.index, v))
        self._adjacency[v].append((link.index, u))
        return link

    def add_links(self, pairs: Iterable[tuple[NodeId, NodeId]]) -> list[Link]:
        """Add a link per ``(u, v)`` pair; returns the created links."""
        return [self.add_link(u, v) for u, v in pairs]

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        """Number of links ``|L|``."""
        return len(self._links)

    def nodes(self) -> list[NodeId]:
        """All node labels in insertion order."""
        return list(self._nodes)

    def links(self) -> list[Link]:
        """All links in index order."""
        return list(self._links)

    def has_node(self, node: NodeId) -> bool:
        """True when ``node`` is in the topology."""
        return node in self._nodes

    def has_link(self, u: NodeId, v: NodeId) -> bool:
        """True when an undirected link joins ``u`` and ``v``."""
        return frozenset((u, v)) in self._link_by_key

    def node_index(self, node: NodeId) -> int:
        """Insertion index of ``node`` (useful for dense node arrays)."""
        try:
            return self._nodes[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def link(self, index: int) -> Link:
        """The link with the given stable ``index``."""
        if not 0 <= index < len(self._links):
            raise LinkNotFoundError(index)
        return self._links[index]

    def link_between(self, u: NodeId, v: NodeId) -> Link:
        """The link joining ``u`` and ``v`` (order-independent)."""
        try:
            return self._link_by_key[frozenset((u, v))]
        except KeyError:
            raise LinkNotFoundError((u, v)) from None

    def neighbors(self, node: NodeId) -> list[NodeId]:
        """Nodes adjacent to ``node``, in link-insertion order."""
        return [neighbor for _, neighbor in self._pairs(node)]

    def incident_links(self, node: NodeId) -> list[Link]:
        """Links having ``node`` as an endpoint, in link-insertion order."""
        return [self._links[index] for index, _ in self._pairs(node)]

    def degree(self, node: NodeId) -> int:
        """Number of links incident to ``node``."""
        return len(self._pairs(node))

    def incidence(self) -> Mapping[NodeId, list[tuple[int, NodeId]]]:
        """The live ``node -> [(link index, neighbour), ...]`` adjacency.

        Each list is in link-insertion order.  These are the topology's own
        lists, not copies, so callers must not mutate them; since links are
        never removed, they never go stale.  Hot loops (the routing
        searches) read it to skip a :class:`Link` lookup per edge.
        """
        return self._adjacency

    def _pairs(self, node: NodeId) -> list[tuple[int, NodeId]]:
        try:
            return self._adjacency[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def links_incident_to_nodes(self, nodes: Iterable[NodeId]) -> set[int]:
        """Indices of every link with at least one endpoint in ``nodes``.

        This is the attacker-controlled link set ``L_m`` for an attacker node
        set ``V_m`` in the paper's threat model: a malicious node can degrade
        any link it terminates.
        """
        out: set[int] = set()
        for node in nodes:
            for link in self.incident_links(node):
                out.add(link.index)
        return out

    def __contains__(self, node: NodeId) -> bool:
        return node in self._nodes

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"<Topology{label}: {self.num_nodes} nodes, {self.num_links} links>"

    # ------------------------------------------------------------------
    # derived structures
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Topology":
        """Structural copy preserving node order and link indices."""
        out = Topology(name=self.name if name is None else name)
        out.add_nodes(self._nodes)
        for link in self._links:
            out.add_link(link.u, link.v)
        return out

    def subgraph(self, nodes: Iterable[NodeId]) -> "Topology":
        """Induced subgraph on ``nodes``.

        Link indices are re-assigned densely in the subgraph; the result is a
        fresh topology, not a view.
        """
        keep = set(nodes)
        missing = [n for n in keep if n not in self._nodes]
        if missing:
            raise NodeNotFoundError(missing[0])
        out = Topology(name=f"{self.name}/subgraph" if self.name else "subgraph")
        out.add_nodes(n for n in self._nodes if n in keep)
        for link in self._links:
            if link.u in keep and link.v in keep:
                out.add_link(link.u, link.v)
        return out

    def adjacency(self) -> dict[NodeId, list[NodeId]]:
        """Adjacency mapping ``node -> neighbor list`` (fresh lists)."""
        return {node: self.neighbors(node) for node in self._nodes}

    def to_networkx(self):
        """Export to a :class:`networkx.Graph`.

        Link indices are stored on edges under the ``index`` attribute so the
        round trip through :meth:`from_networkx` preserves them.
        """
        import networkx as nx

        graph = nx.Graph(name=self.name)
        graph.add_nodes_from(self._nodes)
        for link in self._links:
            graph.add_edge(link.u, link.v, index=link.index)
        return graph

    @classmethod
    def from_networkx(cls, graph, name: str | None = None) -> "Topology":
        """Build a topology from a networkx graph.

        Edges with an ``index`` attribute are inserted in index order so that
        the stable indexing survives a round trip; otherwise edges are added
        in the graph's iteration order.
        """
        topo = cls(name=name if name is not None else (graph.name or ""))
        topo.add_nodes(graph.nodes)
        edges = list(graph.edges(data=True))
        if edges and all("index" in data for _, _, data in edges):
            edges.sort(key=lambda item: item[2]["index"])
        for u, v, _ in edges:
            topo.add_link(u, v)
        return topo
