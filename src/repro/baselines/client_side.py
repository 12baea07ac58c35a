"""Client-side access control (the paper's [3], [5] class).

"All users can retrieve the content from the network.  However, only
legitimate clients with sufficient authorization information (provided
during a prior authorization process) can decrypt and consume the
content.  Despite the feasibility, such mechanisms are prone to wasting
of network bandwidth and potential network DDoS attack by
unauthenticated or revoked users."

Routers are plain NDN forwarders; the provider serves everyone and
hands decryption material only to enrolled clients at registration.
Attacker "successful deliveries" under this scheme measure exactly the
wasted bandwidth TACTIC prevents.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.interfaces import SchemeSpec
from repro.core.config import TacticConfig
from repro.core.metrics import MetricsCollector
from repro.core.provider import Provider
from repro.crypto.pki import CertificateStore
from repro.ndn.link import Face
from repro.ndn.name import Name
from repro.ndn.node import Node
from repro.ndn.packets import Data, Interest
from repro.sim.engine import Simulator


class PlainRouter(Node):
    """A vanilla NDN forwarder (no access-control logic at all)."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        config: TacticConfig,
        cert_store: CertificateStore,
        metrics: Optional[MetricsCollector] = None,
        is_edge: bool = False,
    ) -> None:
        capacity = config.edge_cs_capacity if is_edge else config.cs_capacity
        super().__init__(
            sim,
            node_id,
            cs_capacity=capacity,
            pit_lifetime=config.pit_lifetime,
            cost_model=config.cost_model,
        )


def make_plain_edge(sim, node_id, config, cert_store, metrics=None) -> PlainRouter:
    return PlainRouter(sim, node_id, config, cert_store, metrics, is_edge=True)


def make_plain_core(sim, node_id, config, cert_store, metrics=None) -> PlainRouter:
    return PlainRouter(sim, node_id, config, cert_store, metrics, is_edge=False)


class PlainProvider(Provider):
    """Serves (encrypted) content to any requester, tag or no tag.

    Registration still works — it is the "prior authorization process"
    that hands enrolled clients the wrapped decryption key — but content
    requests bypass all validation.
    """

    def on_interest(self, interest: Interest, in_face: Face) -> None:
        if interest.is_registration():
            self._handle_registration(interest, in_face)
            return
        obj = self.content_object(interest.name)
        if obj is None:
            self.unroutable_drops += 1
            return
        self.stats.chunks_served += 1
        data = Data(
            name=Name(interest.name),
            payload=self._chunk_payload(obj, Name(interest.name)),
            access_level=obj.access_level,
            provider_key_locator=self.key_locator,
            signature=b"\x00" * 64,
            created_at=self.sim.now,
        )
        data.tag = interest.tag
        self.send(in_face, data)


def make_plain_provider(sim, node_id, config, cert_store, keypair) -> PlainProvider:
    return PlainProvider(sim, node_id, config, cert_store, keypair)


CLIENT_SIDE_SCHEME = SchemeSpec(
    name="client_side",
    make_edge_router=make_plain_edge,
    make_core_router=make_plain_core,
    make_provider=make_plain_provider,
    # Clients still enroll once to obtain decryption material, but they
    # do not block content requests on holding a fresh tag.
    clients_register=False,
)
