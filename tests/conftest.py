"""Shared fixtures: a hand-wired mini TACTIC network for protocol tests.

The ``mini_net`` fixture builds the smallest interesting topology:

    client -- ap -- edge -- core1 -- core2 -- provider
    attacker-/                \\- (other edge paths in some tests)

with deterministic (zero-cost) computation so tests assert exact
behaviour, plus helpers to register clients and pump the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List

import pytest

from repro.core.config import TacticConfig
from repro.core.core_router import CoreRouter
from repro.core.edge_router import EdgeRouter
from repro.core.metrics import MetricsCollector
from repro.core.provider import Provider
from repro.crypto.cost_model import ZERO_COST_MODEL
from repro.crypto.pki import CertificateStore
from repro.crypto.sim_signature import SimulatedKeyPair
from repro.ndn.network import Network
from repro.ndn.node import AccessPoint
from repro.sim.engine import Simulator


@dataclass
class MiniNet:
    """Handles to every node of the linear test topology."""

    sim: Simulator
    network: Network
    config: TacticConfig
    cert_store: CertificateStore
    metrics: MetricsCollector
    provider: Provider
    edge: EdgeRouter
    core1: CoreRouter
    core2: CoreRouter
    ap: AccessPoint
    extra: Dict[str, object] = field(default_factory=dict)

    def run(self, until: float = None) -> None:
        self.sim.run(until=until)


def bare_run(sim: Simulator, network: Network = None, **fields) -> SimpleNamespace:
    """The parts of the runner's assembled run an instrument's
    ``install(run)`` reads, for wiring one to a bare simulator."""
    run = dict(
        sim=sim,
        network=network,
        metrics=None,
        config=None,
        scenario=None,
        label="",
        horizon=None,
        instruments={},
        wall_seconds=0.0,
    )
    run.update(fields)
    return SimpleNamespace(**run)


def build_mini_net(config: TacticConfig = None) -> MiniNet:
    """Construct the linear topology with zero-cost computation."""
    config = config or TacticConfig(
        cost_model=ZERO_COST_MODEL,
        tag_expiry=10.0,
        duration=30.0,
    )
    sim = Simulator(seed=7)
    network = Network(sim)
    cert_store = CertificateStore()
    metrics = MetricsCollector()

    keypair = SimulatedKeyPair.generate(sim.rng.stream("prov-key"))
    provider = Provider(sim, "prov-0", config, cert_store, keypair)
    provider.publish_catalog([1, 2, 3])
    edge = EdgeRouter(sim, "edge-0", config, cert_store, metrics)
    core1 = CoreRouter(sim, "core-0", config, cert_store, metrics)
    core2 = CoreRouter(sim, "core-1", config, cert_store, metrics)
    ap = AccessPoint(sim, "ap-0")

    for node in (provider, edge, core1, core2):
        network.add_node(node, routable=True)
    network.add_node(ap, routable=False)

    network.connect(ap, edge, bandwidth_bps=10e6, latency=0.002)
    network.connect(edge, core1, bandwidth_bps=500e6, latency=0.001)
    network.connect(core1, core2, bandwidth_bps=500e6, latency=0.001)
    network.connect(core2, provider, bandwidth_bps=500e6, latency=0.001)
    ap.set_uplink(ap.face_toward(edge))
    network.announce_prefix(provider.prefix, provider)

    return MiniNet(
        sim=sim,
        network=network,
        config=config,
        cert_store=cert_store,
        metrics=metrics,
        provider=provider,
        edge=edge,
        core1=core1,
        core2=core2,
        ap=ap,
    )


@pytest.fixture
def mini_net() -> MiniNet:
    return build_mini_net()


def attach_client(net: MiniNet, client_id: str, access_level: int = 3):
    """Enroll and connect a Client to the mini net's access point."""
    from repro.core.client import Client
    from repro.workload.catalog import build_catalog

    catalog = build_catalog([net.provider]).accessible_to(access_level)
    stats = net.metrics.user(client_id, is_attacker=False)
    keypair = SimulatedKeyPair.generate(net.sim.rng.stream(f"key:{client_id}"))
    client = Client(
        net.sim,
        client_id,
        net.config,
        catalog,
        stats,
        access_level=access_level,
        keypair=keypair,
    )
    client.credentials[net.provider.node_id] = net.provider.directory.enroll(
        client_id, access_level, public_key=keypair.public
    )
    from repro.crypto.pki import Certificate

    net.cert_store.register(
        Certificate(
            locator=f"/{client_id}/KEY/pub",
            public_key=keypair.public,
            subject=client_id,
        )
    )
    net.network.add_node(client, routable=False)
    net.network.connect(client, net.ap, bandwidth_bps=10e6, latency=0.002)
    return client


def drain(sim: Simulator, limit: float = 120.0) -> None:
    """Run the simulator to completion (bounded, to catch livelock)."""
    sim.run(until=limit)


List  # typing reference for fixtures' annotations
