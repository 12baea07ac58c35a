"""Scale-free topology plan generation.

Produces a :class:`TopologyPlan`: node identifiers by role, link specs
with core/edge parameters, and the attachment maps (client -> access
point -> edge router; provider -> core router).  Plans are pure data so
they can be generated, inspected, and tested without a simulator.

The ISP core is a Barabási–Albert scale-free graph (the paper: "four
different scale free network topologies").  Edge routers attach to
randomly chosen core routers; providers attach to the highest-degree
core routers ("providers on top of the hierarchy"); users spread over
access points hanging off the edge routers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

from repro.sim.rng import seeded_stream

#: Paper link parameters.
CORE_BANDWIDTH_BPS = 500e6
CORE_LATENCY_S = 0.001
EDGE_BANDWIDTH_BPS = 10e6
EDGE_LATENCY_S = 0.002


@dataclass(frozen=True)
class LinkSpec:
    """One link in a plan: endpoint ids plus physical parameters."""

    a: str
    b: str
    bandwidth_bps: float
    latency: float
    kind: str  # 'core' or 'edge'


@dataclass
class TopologyPlan:
    """Pure-data description of a simulation topology."""

    core_ids: List[str] = field(default_factory=list)
    edge_ids: List[str] = field(default_factory=list)
    provider_ids: List[str] = field(default_factory=list)
    ap_ids: List[str] = field(default_factory=list)
    client_ids: List[str] = field(default_factory=list)
    attacker_ids: List[str] = field(default_factory=list)
    links: List[LinkSpec] = field(default_factory=list)
    #: client/attacker id -> access point id
    user_ap: Dict[str, str] = field(default_factory=dict)
    #: access point id -> edge router id
    ap_edge: Dict[str, str] = field(default_factory=dict)
    #: provider id -> core router id
    provider_core: Dict[str, str] = field(default_factory=dict)

    @property
    def user_ids(self) -> List[str]:
        return self.client_ids + self.attacker_ids

    def edge_of_user(self, user_id: str) -> str:
        return self.ap_edge[self.user_ap[user_id]]

    def validate(self) -> None:
        """Sanity checks: connectivity and complete attachment maps."""
        neighbors: Dict[str, List[str]] = {}
        for link in self.links:
            neighbors.setdefault(link.a, []).append(link.b)
            neighbors.setdefault(link.b, []).append(link.a)
        all_ids = (
            self.core_ids
            + self.edge_ids
            + self.provider_ids
            + self.ap_ids
            + self.user_ids
        )
        missing = [i for i in all_ids if i not in neighbors]
        if missing:
            raise ValueError(f"nodes with no links: {missing[:5]}")
        if not neighbors:
            raise ValueError("topology has no nodes")
        start = next(iter(neighbors))
        reached = {start}
        frontier = deque([start])
        while frontier:
            for other in neighbors[frontier.popleft()]:
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        if len(reached) != len(neighbors):
            raise ValueError("topology is not connected")
        for user in self.user_ids:
            if user not in self.user_ap:
                raise ValueError(f"user {user} has no access point")


def barabasi_albert_adjacency(n: int, m: int, seed: int) -> Dict[int, List[int]]:
    """Barabási–Albert preferential attachment on nodes ``0..n-1``.

    The draws are the standard reference generator's, one for one: a
    star on ``m + 1`` nodes, then each new node fills a set of ``m``
    distinct targets by ``choice`` over the degree-repeated node list.
    tests/test_topology.py pins the result against golden edge lists.
    Neighbor lists keep insertion order, which :func:`adjacency_edges`
    and the hub ranking depend on.
    """
    if m < 1 or m >= n:
        raise ValueError(f"Barabási–Albert needs 1 <= m < n (m={m}, n={n})")
    rng = seeded_stream(seed)
    adjacency: Dict[int, List[int]] = {0: list(range(1, m + 1))}
    for spoke in range(1, m + 1):
        adjacency[spoke] = [0]
    # Each node repeated once per incident edge (preferential attachment).
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets: Set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        adjacency[source] = list(targets)
        for target in targets:
            adjacency[target].append(source)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return adjacency


def adjacency_edges(adjacency: Dict[int, List[int]]) -> Iterator[Tuple[int, int]]:
    """Each undirected edge once, in adjacency-iteration order."""
    done: Set[int] = set()
    for node, neighbors in adjacency.items():
        for other in neighbors:
            if other not in done:
                yield node, other
        done.add(node)


def hubs_by_degree(adjacency: Dict[int, List[int]]) -> List[int]:
    """Nodes by descending degree; equal degrees keep insertion order
    (``sorted`` is stable under ``reverse=True``)."""
    return sorted(adjacency, key=lambda node: len(adjacency[node]), reverse=True)


def generate_scale_free_plan(
    num_core: int,
    num_edge: int,
    num_providers: int,
    num_clients: int,
    num_attackers: int,
    seed: int = 0,
    ba_attachment: int = 2,
    users_per_ap: int = 4,
    core_bandwidth_bps: float = CORE_BANDWIDTH_BPS,
    core_latency: float = CORE_LATENCY_S,
    edge_bandwidth_bps: float = EDGE_BANDWIDTH_BPS,
    edge_latency: float = EDGE_LATENCY_S,
) -> TopologyPlan:
    """Generate a deterministic scale-free topology plan.

    Parameters mirror Table III rows; ``seed`` controls every random
    choice (graph wiring, attachment points, user placement).
    """
    if num_core < ba_attachment + 1:
        raise ValueError(f"need at least {ba_attachment + 1} core routers")
    if num_edge < 1 or num_providers < 1:
        raise ValueError("need at least one edge router and one provider")

    rng = seeded_stream(seed)
    plan = TopologyPlan()
    plan.core_ids = [f"core-{i}" for i in range(num_core)]
    plan.edge_ids = [f"edge-{i}" for i in range(num_edge)]
    plan.provider_ids = [f"prov-{i}" for i in range(num_providers)]

    # ISP core: Barabási–Albert scale-free graph.
    core_graph = barabasi_albert_adjacency(num_core, ba_attachment, seed)
    for a, b in adjacency_edges(core_graph):
        plan.links.append(
            LinkSpec(
                a=f"core-{a}",
                b=f"core-{b}",
                bandwidth_bps=core_bandwidth_bps,
                latency=core_latency,
                kind="core",
            )
        )

    # Providers sit at the top of the hierarchy: attach to the
    # highest-degree core routers (hubs), one provider per hub,
    # wrapping around if providers outnumber hubs.
    hub_ids = [f"core-{node}" for node in hubs_by_degree(core_graph)]
    for i, provider in enumerate(plan.provider_ids):
        anchor = hub_ids[i % len(hub_ids)]
        plan.provider_core[provider] = anchor
        plan.links.append(
            LinkSpec(
                a=provider,
                b=anchor,
                bandwidth_bps=core_bandwidth_bps,
                latency=core_latency,
                kind="core",
            )
        )

    # Edge routers attach to random core routers (ISP infrastructure
    # links run at core rates).
    for edge in plan.edge_ids:
        anchor = f"core-{rng.randrange(num_core)}"
        plan.links.append(
            LinkSpec(
                a=edge,
                b=anchor,
                bandwidth_bps=core_bandwidth_bps,
                latency=core_latency,
                kind="core",
            )
        )

    # Users (clients + attackers) spread over access points; APs hang
    # off edge routers at wireless-edge rates.
    plan.client_ids = [f"client-{i}" for i in range(num_clients)]
    plan.attacker_ids = [f"attacker-{i}" for i in range(num_attackers)]
    users = plan.user_ids[:]
    rng.shuffle(users)
    num_aps = max(num_edge, (len(users) + users_per_ap - 1) // users_per_ap)
    plan.ap_ids = [f"ap-{i}" for i in range(num_aps)]
    for i, ap in enumerate(plan.ap_ids):
        edge = plan.edge_ids[i % num_edge]
        plan.ap_edge[ap] = edge
        plan.links.append(
            LinkSpec(
                a=ap,
                b=edge,
                bandwidth_bps=edge_bandwidth_bps,
                latency=edge_latency,
                kind="edge",
            )
        )
    for i, user in enumerate(users):
        ap = plan.ap_ids[i % num_aps]
        plan.user_ap[user] = ap
        plan.links.append(
            LinkSpec(
                a=user,
                b=ap,
                bandwidth_bps=edge_bandwidth_bps,
                latency=edge_latency,
                kind="edge",
            )
        )

    plan.validate()
    return plan
