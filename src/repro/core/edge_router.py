"""Protocol 2: the edge-router procedure.

On Interest arrival an edge router rE:

1. compares the tag's access path with the one observed in the request,
   NACKing the client on mismatch (line 1-2),
2. runs the Protocol 1 pre-check (provider prefix vs. content name,
   tag expiry),
3. looks the tag up in its Bloom filter, setting the collaboration flag
   ``F`` to the filter's false-positive probability on a hit or 0 on a
   miss (lines 4-8), and forwards the request (line 9).

On content arrival it:

- inserts fresh registration-response tags into its filter and
  delivers them (lines 11-12),
- for NACK-free content, inserts the primary tag iff the upstream
  router signalled ``F == 0`` ("reminding rE that the tag is not
  available in its Bloom filter") and forwards (lines 13-18),
- for NACKed content, drops the offending request (lines 19-20),
- validates every *other* aggregated tag — Bloom-filter hit, or
  signature verification followed by insertion — forwarding on success
  and dropping on failure (lines 22-23).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.access_path import paths_match
from repro.core.config import TacticConfig
from repro.core.metrics import MetricsCollector
from repro.core.precheck import edge_precheck
from repro.core.router_base import TacticRouterBase
from repro.crypto.pki import CertificateStore
from repro.ndn.link import Face
from repro.ndn.packets import Data, Interest, Nack, NackReason
from repro.ndn.pit import PitRecord
from repro.sim.engine import Simulator


class EdgeRouter(TacticRouterBase):
    """An rE in the paper's notation."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        config: TacticConfig,
        cert_store: CertificateStore,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        super().__init__(sim, node_id, config, cert_store, metrics, is_edge=True)

    # ------------------------------------------------------------------
    # Interest path
    # ------------------------------------------------------------------
    def on_interest(self, interest: Interest, in_face: Face) -> None:
        self.counters.requests_since_reset += 1
        now = self.sim.now

        # Registration traffic carries credentials, not tags; it rides
        # the plain NDN path so the provider's response can route back.
        if interest.is_registration():
            self._enqueue_and_forward(interest, in_face, delay=0.0)
            return

        # Requests without a tag are forwarded with F = 0: public
        # content needs no tag, and private content will be NACKed by
        # the content router (threat (a) is caught upstream, by design —
        # the edge cannot know ALD without the Data packet).
        if interest.tag is None:
            forwarded = interest.copy()
            forwarded.flag_f = 0.0
            self._enqueue_and_forward(forwarded, in_face, delay=0.0)
            return

        delay = self.cost_model.sample("precheck", self.rng)
        reason = edge_precheck(interest.tag, interest.name, now)
        if reason is not None:
            # Protocol 1 failures drop silently ("the edge routers drop
            # the requests with expired tags"); the requester's window
            # slot recovers via its 1 s request expiry — the throttling
            # the paper credits with request-based DoS prevention.
            self.counters.precheck_drops += 1
            return

        if self.config.enable_access_path:
            delay += self.cost_model.sample("access_path_check", self.rng)
            if not paths_match(interest.tag.access_path, interest.observed_access_path):
                self.counters.access_path_drops += 1
                self._nack_client(interest, in_face, NackReason.ACCESS_PATH, delay)
                return

        if self.config.client_signatures:
            # The expensive alternative to the access path (Section 4.A):
            # authenticate the requester against the Pubu in the tag.
            valid, verify_delay = self._verify_client_signature(interest)
            delay += verify_delay
            if not valid:
                self.counters.precheck_drops += 1
                return

        found, lookup_delay = self.bf_lookup(interest.tag)
        delay += lookup_delay
        forwarded = interest.copy()
        forwarded.flag_f = self.current_flag_value() if found else 0.0
        self._enqueue_and_forward(forwarded, in_face, delay)

    def _enqueue_and_forward(self, interest: Interest, in_face: Face, delay: float) -> None:
        record = PitRecord(
            tag=interest.tag,
            flag_f=interest.flag_f,
            in_face=in_face,
            arrived_at=self.sim.now,
            requester_id=interest.requester_id,
            nonce=interest.nonce,
        )
        if self.pit.insert(interest.name, record, now=self.sim.now):
            self.forward_interest(interest, in_face, delay)

    def _verify_client_signature(self, interest: Interest) -> Tuple[bool, float]:
        """Check the request signature against the tag's client locator."""
        self.counters.client_sig_verifications += 1
        delay = self.cost_model.sample("signature_verify", self.rng)
        public_key = self.cert_store.try_get_public_key(
            interest.tag.client_key_locator, now=self.sim.now
        )
        if public_key is None or not interest.client_signature:
            return False, delay
        return public_key.verify(interest.signed_portion(), interest.client_signature), delay

    def _nack_client(
        self, interest: Interest, in_face: Face, reason: NackReason, delay: float
    ) -> None:
        self.counters.nacks_issued += 1
        if self.audit is not None:
            key = interest.tag._cache_key if interest.tag is not None else b""
            self.audit.note_nack(self, key, reason)
        nack = Nack(name=interest.name, reason=reason, nonce=interest.nonce)
        self.send(in_face, nack, delay)

    # ------------------------------------------------------------------
    # Content path
    # ------------------------------------------------------------------
    def on_data(self, data: Data, in_face: Face) -> None:
        entry = self.pit.consume(data.name, now=self.sim.now)
        if entry is None:
            return

        # Registration response: "if D == T_new_u then insert T_new_u
        # into BF rE and forward D to u" (lines 11-12).
        if data.is_tag_response():
            delay = self.bf_insert(data.tag_response)
            for record in entry.records:
                out = data.copy()
                out.span_id = record.nonce
                self.send(record.in_face, out, delay)
            return

        primary_key = data.tag._cache_key if data.tag is not None else None
        nack_key = data.nack.tag_key if data.nack is not None else None

        for record in entry.records:
            record_key = record.tag._cache_key if record.tag is not None else b""
            delay = 0.0

            if data.nack is not None and record_key == nack_key:
                # Lines 19-20: drop the request whose tag was NACKed.
                continue

            if record.tag is None:
                # Tag-less requester: deliver only NACK-free (public) data.
                if data.nack is None:
                    self._deliver(data, record, flag=data.flag_f, delay=0.0)
                continue

            if record_key == primary_key and data.nack is None:
                # Lines 13-18: the request that travelled upstream.
                if data.flag_f == 0.0:
                    delay += self.bf_insert(record.tag)
                self._deliver(data, record, flag=data.flag_f, delay=delay)
                continue

            # Lines 22-23: validate every other aggregated tag.
            found, lookup_delay = self.bf_lookup(record.tag)
            delay += lookup_delay
            if found:
                self._deliver(data, record, flag=self.current_flag_value(), delay=delay)
                continue
            valid, verify_delay = self.verify_tag_signature(record.tag)
            delay += verify_delay
            if valid and not record.tag.is_expired(self.sim.now):
                delay += self.bf_insert(record.tag)
                self._deliver(data, record, flag=0.0, delay=delay)
            # else: "drop otherwise" (line 23).

    def _deliver(self, data: Data, record: PitRecord, flag: float, delay: float) -> None:
        out = data.copy()
        out.tag = record.tag
        out.nack = None  # NACKs never propagate past the edge decision
        out.flag_f = flag
        out.span_id = record.nonce
        self.send(record.in_face, out, delay)
