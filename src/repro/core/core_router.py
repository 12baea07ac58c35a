"""The core router: content router and intermediate router in one node.

The paper partitions core routers *per content*: "core routers are
either content routers, if the content has been cached, or intermediate
routers, otherwise" (Section 3.A).  The same physical node therefore
plays both roles — Protocol 3 when its content store can satisfy the
arriving Interest, Protocol 4 when it cannot — and flips roles for a
given name the moment content it forwards gets cached.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import TacticConfig
from repro.core.content_router import ContentRouterMixin
from repro.core.intermediate_router import IntermediateRouterMixin
from repro.core.metrics import MetricsCollector
from repro.core.router_base import TacticRouterBase
from repro.crypto.pki import CertificateStore
from repro.ndn.link import Face
from repro.ndn.packets import Data, Interest
from repro.sim.engine import Simulator


class CoreRouter(ContentRouterMixin, IntermediateRouterMixin, TacticRouterBase):
    """An rC in the paper's notation (rcC on cache hit, riC on miss)."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        config: TacticConfig,
        cert_store: CertificateStore,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        super().__init__(sim, node_id, config, cert_store, metrics, is_edge=False)

    def on_interest(self, interest: Interest, in_face: Face) -> None:
        self.counters.requests_since_reset += 1
        if interest.is_registration():
            # Registration rides plain NDN forwarding to the provider.
            self.aggregate_or_forward(interest, in_face)
            return
        cached = self.cs.lookup(interest.name, now=self.sim.now)
        if cached is not None:
            self.serve_content(interest, cached, in_face)  # Protocol 3
        else:
            self.aggregate_or_forward(interest, in_face)  # Protocol 4

    def on_data(self, data: Data, in_face: Face) -> None:
        self.distribute_content(data, in_face)  # Protocol 4, content side
