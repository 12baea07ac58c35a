"""Unit tests for topology plans and Table III presets."""

import hashlib
from collections import Counter

import pytest

from repro.topology import (
    PAPER_TOPOLOGIES,
    LinkSpec,
    TopologyPlan,
    generate_scale_free_plan,
    paper_topology_plan,
)
from repro.topology.scale_free import (
    CORE_BANDWIDTH_BPS,
    CORE_LATENCY_S,
    EDGE_BANDWIDTH_BPS,
    EDGE_LATENCY_S,
    adjacency_edges,
    barabasi_albert_adjacency,
    hubs_by_degree,
)

#: Barabási–Albert core for (n=80, m=2), recorded from networkx 3.6.1's
#: ``barabasi_albert_graph(80, 2, seed)``: seed -> (sha256 of
#: ``repr(list(G.edges()))``, sha256 of the full hub order's repr, the
#: ten highest-degree nodes).  The hub order is
#: ``sorted(G.degree, key=degree, reverse=True)``, the rule that places
#: providers.
BA_GOLDEN = {
    0: (
        "5be51ecefcf8a405d90d4e14eaf2eedb641165bddb8d5e58f559e9d8ddf53e2c",
        "b4350aa515257e7a3ca14bf1e2b1e98c25827a21f884382b64bb41eeba71909d",
        [3, 0, 4, 6, 9, 7, 18, 13, 19, 8],
    ),
    1: (
        "a0c53ce265f05d36e8eeeaa078cbd17698457eea11ed3be6ba686b062d3b3806",
        "b86f6ba7fcd614f7a56fb1a063200a7fdabb7c18ce2cffe2b60f15bc1b4f8906",
        [3, 0, 5, 8, 12, 25, 1, 34, 4, 17],
    ),
    2: (
        "52ca587071141a27c15bd239bc521ac19061cb94e591c7041bf10991921c55d9",
        "988cb00472fc11ba5422be6595e5c2ce6e05ae0ec7c65550d147d9e04c682c2a",
        [7, 1, 0, 3, 4, 17, 13, 5, 6, 10],
    ),
    3: (
        "d8a28755f22588784dd599e2182f27ebbfe9fd88669c384405d2575c2fa8d285",
        "1b897fd02bd38faf4d41d0bb6cee326e06fc6f00bdf8f260c1c4a10d843b4abd",
        [0, 3, 12, 4, 5, 11, 7, 8, 20, 14],
    ),
    4: (
        "a159a09b706895ff3b2985e95c2fb53b9afc79dac30250c1008ae5269297a4bf",
        "d548b54b106b7a7502af14b4a7830dd7ab2264142e4abdc8f57366c320561e6e",
        [1, 0, 3, 4, 9, 13, 22, 15, 19, 11],
    ),
}

#: First edges of the seed-0 graph, in networkx's edge order.
BA_SEED0_HEAD = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 8), (0, 9), (0, 13),
    (0, 21), (0, 23), (0, 27), (0, 28), (0, 29), (0, 44), (0, 45), (0, 65),
    (2, 3), (3, 4), (3, 5), (3, 7), (3, 9), (3, 10), (3, 11), (3, 12),
]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _degrees(links) -> Counter:
    degrees: Counter = Counter()
    for link in links:
        degrees[link.a] += 1
        degrees[link.b] += 1
    return degrees


def _reachable(links, start):
    neighbors = {}
    for link in links:
        neighbors.setdefault(link.a, set()).add(link.b)
        neighbors.setdefault(link.b, set()).add(link.a)
    seen, stack = {start}, [start]
    while stack:
        for other in neighbors[stack.pop()] - seen:
            seen.add(other)
            stack.append(other)
    return seen, set(neighbors)


class TestPresets:
    def test_table3_counts(self):
        expected = {
            1: (80, 20, 10, 35, 15),
            2: (180, 20, 10, 71, 29),
            3: (370, 30, 10, 143, 57),
            4: (560, 40, 10, 213, 87),
        }
        for index, (core, edge, prov, clients, attackers) in expected.items():
            preset = PAPER_TOPOLOGIES[index]
            assert preset.num_core == core
            assert preset.num_edge == edge
            assert preset.num_providers == prov
            assert preset.num_clients == clients
            assert preset.num_attackers == attackers

    def test_attackers_are_roughly_one_third(self):
        for preset in PAPER_TOPOLOGIES.values():
            total = preset.num_clients + preset.num_attackers
            assert 0.25 <= preset.num_attackers / total <= 0.40

    def test_plan_generation_matches_preset(self):
        plan = paper_topology_plan(1, seed=0)
        preset = PAPER_TOPOLOGIES[1]
        assert len(plan.core_ids) == preset.num_core
        assert len(plan.edge_ids) == preset.num_edge
        assert len(plan.provider_ids) == preset.num_providers
        assert len(plan.client_ids) == preset.num_clients
        assert len(plan.attacker_ids) == preset.num_attackers

    def test_unknown_index_rejected(self):
        with pytest.raises(KeyError):
            paper_topology_plan(9)

    def test_scaled_preset(self):
        scaled = PAPER_TOPOLOGIES[1].scaled(0.5)
        assert scaled.num_core == 40
        assert scaled.num_clients == 18
        tiny = PAPER_TOPOLOGIES[1].scaled(0.001)
        assert tiny.num_core >= 3 and tiny.num_clients >= 1


class TestPlanGeneration:
    def test_deterministic(self):
        a = generate_scale_free_plan(20, 4, 2, 8, 4, seed=7)
        b = generate_scale_free_plan(20, 4, 2, 8, 4, seed=7)
        assert a.links == b.links
        assert a.user_ap == b.user_ap

    def test_seed_changes_plan(self):
        a = generate_scale_free_plan(20, 4, 2, 8, 4, seed=1)
        b = generate_scale_free_plan(20, 4, 2, 8, 4, seed=2)
        assert a.links != b.links

    def test_connected(self):
        plan = generate_scale_free_plan(30, 5, 3, 10, 5, seed=3)
        reached, nodes = _reachable(plan.links, plan.core_ids[0])
        assert reached == nodes

    def test_link_parameters(self):
        plan = generate_scale_free_plan(20, 4, 2, 8, 4, seed=0)
        for link in plan.links:
            if link.kind == "core":
                assert link.bandwidth_bps == CORE_BANDWIDTH_BPS
                assert link.latency == CORE_LATENCY_S
            else:
                assert link.bandwidth_bps == EDGE_BANDWIDTH_BPS
                assert link.latency == EDGE_LATENCY_S

    def test_every_user_attached(self):
        plan = generate_scale_free_plan(20, 4, 2, 8, 4, seed=0)
        for user in plan.user_ids:
            ap = plan.user_ap[user]
            assert ap in plan.ap_ids
            assert plan.ap_edge[ap] in plan.edge_ids
            assert plan.edge_of_user(user) in plan.edge_ids

    def test_providers_anchor_at_core(self):
        plan = generate_scale_free_plan(20, 4, 2, 8, 4, seed=0)
        for provider, anchor in plan.provider_core.items():
            assert anchor in plan.core_ids

    def test_providers_prefer_hubs(self):
        plan = generate_scale_free_plan(50, 4, 1, 8, 4, seed=5)
        degrees = _degrees(
            link for link in plan.links
            if link.a.startswith("core") and link.b.startswith("core")
        )
        anchor = plan.provider_core["prov-0"]
        assert degrees[anchor] == max(degrees.values())

    def test_scale_free_degree_distribution(self):
        # A BA graph must have hubs: max degree well above the median.
        plan = generate_scale_free_plan(200, 4, 2, 8, 4, seed=1)
        degrees = sorted(_degrees(
            link for link in plan.links
            if link.kind == "core" and link.a.startswith("core") and link.b.startswith("core")
        ).values())
        assert degrees[-1] >= 4 * degrees[len(degrees) // 2]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            generate_scale_free_plan(2, 1, 1, 1, 1, seed=0)
        with pytest.raises(ValueError):
            generate_scale_free_plan(10, 0, 1, 1, 1, seed=0)

    def test_validation_catches_orphan(self):
        plan = generate_scale_free_plan(20, 4, 2, 8, 4, seed=0)
        plan.client_ids.append("client-orphan")
        with pytest.raises(ValueError):
            plan.validate()

    def test_validation_catches_partition(self):
        plan = generate_scale_free_plan(20, 4, 2, 8, 4, seed=0)
        plan.client_ids.append("client-island")
        plan.ap_ids.append("ap-island")
        plan.links.append(LinkSpec("client-island", "ap-island", 1.0, 1.0, "edge"))
        plan.user_ap["client-island"] = "ap-island"
        with pytest.raises(ValueError, match="not connected"):
            plan.validate()

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            TopologyPlan().validate()


class TestBarabasiAlbert:
    """The in-house generator against golden networkx 3.6.1 output."""

    @pytest.mark.parametrize("seed", sorted(BA_GOLDEN))
    def test_edges_and_hubs_match_golden(self, seed):
        edges_digest, hubs_digest, top_hubs = BA_GOLDEN[seed]
        adjacency = barabasi_albert_adjacency(80, 2, seed)
        edges = list(adjacency_edges(adjacency))
        hubs = hubs_by_degree(adjacency)
        assert len(edges) == 2 + 77 * 2
        assert hubs[:10] == top_hubs
        assert _digest(edges) == edges_digest
        assert _digest(hubs) == hubs_digest

    def test_edge_order_head(self):
        edges = list(adjacency_edges(barabasi_albert_adjacency(80, 2, 0)))
        assert edges[: len(BA_SEED0_HEAD)] == BA_SEED0_HEAD

    @pytest.mark.parametrize("seed", sorted(BA_GOLDEN))
    def test_plan_anchors_providers_on_golden_hubs(self, seed):
        plan = generate_scale_free_plan(80, 20, 10, 35, 15, seed=seed)
        anchors = [plan.provider_core[f"prov-{i}"] for i in range(10)]
        assert anchors == [f"core-{node}" for node in BA_GOLDEN[seed][2]]

    def test_invalid_attachment_rejected(self):
        with pytest.raises(ValueError):
            barabasi_albert_adjacency(5, 0, 0)
        with pytest.raises(ValueError):
            barabasi_albert_adjacency(3, 3, 0)
