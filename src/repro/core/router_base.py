"""Shared machinery for TACTIC routers.

Every TACTIC router owns a Bloom filter of validated tags, a handle to
the ISP's certificate store, and operation counters.  The helpers here
wrap the three computation-based events the paper models — BF lookup,
BF insertion, signature verification — so each call counts the
operation, performs it, and returns the sampled latency to add to the
packet's processing delay (the authors' ns-3 technique, Section 8.B).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.config import TacticConfig
from repro.core.metrics import MetricsCollector, OpCounters
from repro.core.tag import Tag
from repro.crypto.pki import CertificateStore
from repro.filters.bloom import BloomFilter
from repro.ndn.node import Node
from repro.sim.engine import Simulator


class TacticRouterBase(Node):
    """Base class for edge and core TACTIC routers.

    Parameters
    ----------
    sim, node_id:
        As for :class:`~repro.ndn.node.Node`.
    config:
        The run's :class:`~repro.core.config.TacticConfig`.
    cert_store:
        The ISP-wide PKI store used to resolve provider key locators.
    metrics:
        Run-wide collector; the router registers its counters with it.
    is_edge:
        Whether this router plays the edge role (affects metric
        bucketing and content-store capacity).
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        config: TacticConfig,
        cert_store: CertificateStore,
        metrics: Optional[MetricsCollector] = None,
        is_edge: bool = False,
    ) -> None:
        cs_capacity = config.edge_cs_capacity if is_edge else config.cs_capacity
        super().__init__(
            sim,
            node_id,
            cs_capacity=cs_capacity,
            pit_lifetime=config.pit_lifetime,
            cost_model=config.cost_model,
            cs_policy=config.cs_policy,
            pit_capacity=config.pit_capacity,
        )
        self.config = config
        self.cert_store = cert_store
        self.is_edge = is_edge
        self.bloom = BloomFilter(
            capacity=config.bf_capacity,
            max_fpp=config.bf_max_fpp,
            num_hashes=config.bf_num_hashes,
            sizing_fpp=config.bf_sizing_fpp,
        )
        self.counters = OpCounters()
        #: Decision-audit hook (:class:`repro.obs.audit.DecisionAudit`);
        #: a single attribute check keeps the off state zero-cost, and
        #: the hooks never touch the RNG, so audited runs stay
        #: bit-identical to unaudited ones.
        self.audit = None
        #: Blacklisted tag cache-keys (explicit-revocation extension).
        #: Checked before the filter and before signature verification,
        #: so a revoked-but-unexpired tag can never be re-admitted.
        self.revoked_tag_keys = set()
        if metrics is not None:
            metrics.register_router(node_id, self.counters, is_edge=is_edge)

    # ------------------------------------------------------------------
    # Computation-based events (counted + latency-sampled)
    # ------------------------------------------------------------------
    def bf_lookup(self, tag: Tag) -> Tuple[bool, float]:
        """Bloom-filter membership test for a tag.

        With Bloom filters disabled (the no-BF ablation baseline) the
        lookup reports a miss at zero cost, which forces the signature
        path on every request — the behaviour of router-enforced schemes
        without TACTIC's filter caching.
        """
        key = tag._cache_key
        if self.revoked_tag_keys and key in self.revoked_tag_keys:
            if self.audit is not None:
                self.audit.record_decision(
                    "revoked", self, tag_key=key, outcome="bf_lookup"
                )
            return False, 0.0
        if not self.config.use_bloom_filters:
            return False, 0.0
        self.counters.bf_lookups += 1
        found = self.bloom.contains(key)
        delay = self.cost_model.sample("bf_lookup", self.rng)
        if self.audit is not None:
            self.audit.note_bf_lookup(self, key, found, delay)
        return found, delay

    def bf_insert(self, tag: Tag) -> float:
        """Insert a validated tag; handles the saturation auto-reset."""
        if not self.config.use_bloom_filters:
            return 0.0
        self.counters.bf_inserts += 1
        key = tag._cache_key
        reset = self.bloom.insert_with_auto_reset(key)
        if reset:
            self.counters.note_reset()
        if self.audit is not None:
            self.audit.note_bf_insert(self, key, reset)
        return self.cost_model.sample("bf_insert", self.rng)

    def revoke_tag_key(self, key: bytes) -> None:
        """Blacklist one tag on this node (explicit-revocation hook)."""
        self.revoked_tag_keys.add(key)
        if self.audit is not None:
            self.audit.note_revoked(self, key)

    def verify_tag_signature(self, tag: Tag) -> Tuple[bool, float]:
        """Full signature verification through the PKI."""
        if self.revoked_tag_keys and tag._cache_key in self.revoked_tag_keys:
            # Cryptographically valid but administratively dead.
            if self.audit is not None:
                self.audit.record_decision(
                    "revoked", self, tag_key=tag._cache_key, outcome="sig_verify"
                )
            return False, 0.0
        self.counters.signature_verifications += 1
        public_key = self.cert_store.try_get_public_key(
            tag.provider_key_locator, now=self.sim.now
        )
        valid = public_key is not None and tag.verify_signature(public_key)
        delay = self.cost_model.sample("signature_verify", self.rng)
        if self.audit is not None:
            self.audit.note_sig_verify(self, tag, valid, delay)
        return valid, delay

    def current_flag_value(self) -> float:
        """The F value advertised for a BF hit: this filter's FPP.

        "The value of F is set to zero if the received tag is not
        available in rE's BF and set to the false positive rate of rE's
        BF otherwise."  We use the live FPP estimate, which grows as the
        filter fills — exactly the coupling the paper exploits ("if the
        rE's Bloom filter false positive increases, then the probability
        of a content router validating the tag increases").
        """
        return self.bloom.current_fpp()
