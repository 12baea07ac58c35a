"""Route computation: Dijkstra tie-breaking, path latency, link repair,
and a cross-check of the in-house graph code against networkx."""

import pytest

from repro.ndn import Network, Node
from repro.sim import Simulator
from repro.topology import PAPER_TOPOLOGIES, paper_topology_plan
from repro.topology.scale_free import adjacency_edges, barabasi_albert_adjacency, hubs_by_degree


def _network(*node_ids):
    sim = Simulator(seed=1)
    net = Network(sim)
    return net, {nid: net.add_node(Node(sim, nid)) for nid in node_ids}


class TestEqualCostTieBreak:
    """Equal-cost paths are common in the BA core; the next hop must be
    the one networkx's Dijkstra picks (the first path found), or every
    FIB downstream changes."""

    def test_diamond_keeps_first_found_path(self):
        # o -> x -> t and o -> y -> t both cost 2.  x is pushed (and so
        # settled) first, and y's equal path does not replace it.
        net, n = _network("o", "x", "y", "t")
        net.connect(n["o"], n["x"], latency=1.0)
        net.connect(n["o"], n["y"], latency=1.0)
        net.connect(n["y"], n["t"], latency=1.0)
        net.connect(n["x"], n["t"], latency=1.0)
        net.announce_prefix("/p", n["o"])
        assert n["t"].fib.lookup("/p/a").peer is n["x"]
        assert n["t"].fib.lookup_entry("/p/a")[1] == 2.0

    def test_diamond_follows_link_order(self):
        net, n = _network("o", "x", "y", "t")
        net.connect(n["o"], n["y"], latency=1.0)
        net.connect(n["o"], n["x"], latency=1.0)
        net.connect(n["x"], n["t"], latency=1.0)
        net.connect(n["y"], n["t"], latency=1.0)
        net.announce_prefix("/p", n["o"])
        assert n["t"].fib.lookup("/p/a").peer is n["y"]


class TestPathLatency:
    def test_partitions_and_repair(self):
        net, n = _network("a", "b", "c", "island")
        net.connect(n["a"], n["b"], latency=1.0)
        net.connect(n["b"], n["c"], latency=1.0)
        net.connect(n["a"], n["c"], latency=5.0)
        assert net.path_latency(n["a"], n["a"]) == 0
        assert net.path_latency(n["a"], n["c"]) == 2.0
        assert net.path_latency(n["a"], n["island"]) is None
        net.fail_link(n["a"], n["b"])
        assert net.path_latency(n["a"], n["c"]) == 5.0
        net.restore_link(n["a"], n["b"])
        assert net.path_latency(n["a"], n["c"]) == 2.0

    def test_unroutable_endpoint(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        a = net.add_node(Node(sim, "a"))
        hidden = net.add_node(Node(sim, "hidden"), routable=False)
        net.connect(a, hidden)
        assert net.path_latency(hidden, a) is None
        assert net.path_latency(a, hidden) is None


def _plan_network(plan):
    """Plain nodes wired as the plan says, providers announcing their
    prefixes (users and APs stay out of routing, as in the runner)."""
    sim = Simulator(seed=1)
    net = Network(sim)
    for node_id in plan.provider_ids + plan.core_ids + plan.edge_ids:
        net.add_node(Node(sim, node_id))
    for node_id in plan.ap_ids + plan.user_ids:
        net.add_node(Node(sim, node_id), routable=False)
    for link in plan.links:
        net.connect(net.node(link.a), net.node(link.b), latency=link.latency)
    return net


CROSS_SEEDS = range(50)


@pytest.mark.parametrize("index", sorted(PAPER_TOPOLOGIES))
def test_cross_check_against_networkx(index):
    nx = pytest.importorskip("networkx")
    preset = PAPER_TOPOLOGIES[index]
    for seed in CROSS_SEEDS:
        reference = nx.barabasi_albert_graph(preset.num_core, 2, seed=seed)
        adjacency = barabasi_albert_adjacency(preset.num_core, 2, seed)
        assert list(adjacency_edges(adjacency)) == list(reference.edges())
        assert hubs_by_degree(adjacency) == [
            node for node, _ in sorted(reference.degree, key=lambda kv: kv[1], reverse=True)
        ]
    # Routes: every FIB entry against networkx's Dijkstra on the same
    # graph (a slice of the seeds; each plan runs ten Dijkstras).
    for seed in CROSS_SEEDS[::5]:
        plan = paper_topology_plan(index, seed=seed)
        net = _plan_network(plan)
        graph = nx.Graph()
        graph.add_nodes_from(plan.provider_ids + plan.core_ids + plan.edge_ids)
        for link in plan.links:
            if link.a in graph and link.b in graph:
                graph.add_edge(link.a, link.b, weight=link.latency)
        for provider_id in plan.provider_ids:
            net.announce_prefix(f"/{provider_id}", net.node(provider_id))
            lengths, paths = nx.single_source_dijkstra(graph, provider_id)
            for node_id, path in paths.items():
                if node_id == provider_id:
                    continue
                hops = net.node(node_id).fib.lookup_nexthops(f"/{provider_id}/x")
                assert [(h.face.peer.node_id, h.cost) for h in hops] == [
                    (path[-2], lengths[node_id])
                ], (index, seed, provider_id, node_id)
