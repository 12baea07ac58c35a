"""Network assembly: nodes, links, and FIB population.

A :class:`Network` owns the simulator, every node, and every link, and
computes latency-weighted shortest-path routes (Dijkstra over the
routable nodes) from each router toward each announced name prefix —
the role a routing protocol (NLSR) plays in a real NDN deployment.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ndn.link import Link
from repro.ndn.name import Name, NameLike
from repro.ndn.node import Node
from repro.sim.engine import Simulator


class Network:  # simlint: disable=SL014 (one per scenario)
    """Container wiring nodes, links, and routes together."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        #: Routing graph: routable node id -> {neighbor id: link latency},
        #: neighbors in link-creation order.
        self._adjacency: Dict[str, Dict[str, float]] = {}
        #: (prefix, origin) pairs, remembered so routes can be recomputed
        #: after topology changes (link failure/restoration).
        self._announcements: List[Tuple[Name, Node]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node, routable: bool = True) -> Node:
        """Register ``node``.  Non-routable nodes (clients, APs) are kept
        out of the routing graph so shortest paths never cut through
        the wireless edge."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node
        if routable:
            self._adjacency[node.node_id] = {}
        return node

    def connect(
        self,
        a: Node,
        b: Node,
        bandwidth_bps: float = 500e6,
        latency: float = 0.001,
        queue_bytes: int = 64 * 1024,
        loss_rate: float = 0.0,
    ) -> Link:
        """Create a duplex link between two registered nodes."""
        link = Link(
            self.sim,
            a,
            b,
            bandwidth_bps=bandwidth_bps,
            latency=latency,
            queue_bytes=queue_bytes,
            loss_rate=loss_rate,
        )
        self.links.append(link)
        self._add_edge(a.node_id, b.node_id, latency)
        return link

    def _add_edge(self, a: str, b: str, latency: float) -> None:
        adjacency = self._adjacency
        if a in adjacency and b in adjacency:
            adjacency[a][b] = latency
            adjacency[b][a] = latency

    def _shortest_paths(
        self, source: str, target: Optional[str] = None
    ) -> Tuple[Dict[str, float], Dict[str, str]]:
        """Latency-weighted Dijkstra from ``source``.

        Returns ``(dist, pred)``: distances in settle order and each
        reached node's predecessor on its shortest path.  Ties are
        broken deterministically: the heap orders equal distances by
        push order, and a predecessor is replaced only by a strictly
        shorter path, so among equal-cost paths the first one found
        wins.  Stops once ``target`` is settled.
        """
        adjacency = self._adjacency
        dist: Dict[str, float] = {}
        best: Dict[str, float] = {source: 0}
        pred: Dict[str, str] = {}
        tiebreak = count()
        fringe: List[Tuple[float, int, str]] = [(0, next(tiebreak), source)]
        while fringe:
            distance, _, node = heappop(fringe)
            if node in dist:
                continue
            dist[node] = distance
            if node == target:
                break
            for other, latency in adjacency[node].items():
                if other in dist:
                    continue
                candidate = distance + latency
                if other not in best or candidate < best[other]:
                    best[other] = candidate
                    pred[other] = node
                    heappush(fringe, (candidate, next(tiebreak), other))
        return dist, pred

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def announce_prefix(
        self, prefix: NameLike, origin: Node, replace: bool = False
    ) -> None:
        """Install FIB entries toward ``origin`` on every routable node.

        Computes latency-weighted shortest paths from the origin and
        points each router's FIB entry for ``prefix`` at its next hop.
        ``replace=True`` discards any existing hop set first (used when
        re-converging after a topology change, where stale hops may be
        spuriously cheaper than any live path).
        """
        prefix = Name(prefix)
        if origin.node_id not in self._adjacency:
            raise ValueError(f"origin {origin.node_id!r} is not routable")
        if (prefix, origin) not in self._announcements:
            self._announcements.append((prefix, origin))
        lengths, pred = self._shortest_paths(origin.node_id)
        if replace:
            for node in self.nodes.values():
                node.fib.remove(prefix)
        for node_id, length in lengths.items():
            if node_id == origin.node_id:
                continue
            node = self.nodes[node_id]
            # The predecessor on the origin -> node path is the next hop.
            face = node.face_toward(self.nodes[pred[node_id]])
            node.fib.add_if_cheaper(prefix, face, cost=length)

    def announce_prefixes(self, announcements: Iterable[Tuple[NameLike, Node]]) -> None:
        for prefix, origin in announcements:
            self.announce_prefix(prefix, origin)

    # ------------------------------------------------------------------
    # Failures and repair
    # ------------------------------------------------------------------
    def find_link(self, a: Node, b: Node) -> Optional[Link]:
        for link in self.links:
            if {n.node_id for n in link._nodes} == {a.node_id, b.node_id}:
                return link
        return None

    def fail_link(self, a: Node, b: Node, reroute: bool = True) -> Link:
        """Take the a—b link down; optionally recompute every route.

        FIB entries pointing over the dead link are purged from both
        endpoints first, so even without a reroute the strategies stop
        selecting it.
        """
        link = self.find_link(a, b)
        if link is None:
            raise LookupError(f"no link between {a.node_id} and {b.node_id}")
        link.up = False
        self._adjacency.get(a.node_id, {}).pop(b.node_id, None)
        self._adjacency.get(b.node_id, {}).pop(a.node_id, None)
        for node in (a, b):
            node.fib.purge_face(link.face_of(node))
        if reroute:
            self.reannounce()
        return link

    def restore_link(self, a: Node, b: Node, reroute: bool = True) -> Link:
        """Bring the a—b link back and (optionally) recompute routes."""
        link = self.find_link(a, b)
        if link is None:
            raise LookupError(f"no link between {a.node_id} and {b.node_id}")
        link.up = True
        self._add_edge(a.node_id, b.node_id, link.latency)
        if reroute:
            self.reannounce()
        return link

    def reannounce(self) -> None:
        """Recompute every remembered announcement on the current graph
        (the role of a routing protocol's convergence)."""
        for prefix, origin in self._announcements:
            try:
                self.announce_prefix(prefix, origin, replace=True)
            except ValueError:
                continue  # origin partitioned; nothing to announce

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> Node:
        return self.nodes[node_id]

    def total_drops(self) -> int:
        return sum(link.packets_dropped for link in self.links)

    def total_bytes(self) -> int:
        return sum(link.bytes_sent for link in self.links)

    def path_latency(self, a: Node, b: Node) -> Optional[float]:
        """Propagation latency of the routed path between two routers
        (None when either is unroutable or they are partitioned)."""
        if a.node_id not in self._adjacency:
            return None
        lengths, _ = self._shortest_paths(a.node_id, target=b.node_id)
        return lengths.get(b.node_id)
