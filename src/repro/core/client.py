"""The Zipf-window client (Section 8.A, "Client and Attacker Setup").

"We implemented a Zipf-window client in which each client is equipped
with a fixed size window for outstanding requests (set to 5 requests in
our simulations).  Clients take the content popularity (Zipf
distribution with alpha = 0.7) into account to select and request new
contents.  Clients first register themselves at the content providers,
if they do not possess any valid tag from that provider, and then
request the selected contents."

The client is event-driven: a pump fills the outstanding-request window
whenever a slot frees (data, NACK, or the 1-second request expiry) and
pauses on a registration round-trip when the needed tag is missing or
expired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.config import TacticConfig
from repro.core.metrics import UserStats
from repro.core.tag import Tag
from repro.ndn.link import Face
from repro.ndn.name import Name
from repro.ndn.node import Node
from repro.ndn.packets import Data, Interest, Nack
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.workload.catalog import Catalog, CatalogEntry
from repro.workload.zipf import ZipfSampler


@dataclass
class _Outstanding:
    issued_at: float
    nonce: int
    timeout_event: Event
    retries: int = 0


@dataclass
class _PendingRegistration:
    name: Name
    timeout_event: Event
    nonce: int = 0
    issued_at: float = 0.0


class Client(Node):
    """A legitimate content consumer."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        config: TacticConfig,
        catalog: Catalog,
        stats: UserStats,
        access_level: int = 1,
        keypair: object = None,
    ) -> None:
        super().__init__(sim, node_id, cs_capacity=0)
        if len(catalog) == 0:
            raise ValueError(f"client {node_id} has an empty catalog")
        self.config = config
        self.catalog = catalog
        self.stats = stats
        self.access_level = access_level
        self.keypair = keypair
        #: provider_id -> credential secret (established by enrollment).
        self.credentials: Dict[str, bytes] = {}
        #: provider_id -> current tag.
        self.tags: Dict[str, Tag] = {}
        #: provider_id -> unwrapped catalog master key.
        self.master_keys: Dict[str, bytes] = {}
        #: Keyed by the chunk name's URI string (``name._uri``).
        self._outstanding: Dict[str, _Outstanding] = {}
        self._registration_pending: Dict[str, _PendingRegistration] = {}
        self._zipf = ZipfSampler(len(catalog), config.zipf_alpha, self.rng)
        self._cursor: Optional[Tuple[CatalogEntry, int]] = None
        self._registration_seq = 0
        self._retry_scheduled = False
        self.end_time = float("inf")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, at: float, until: float) -> None:
        """Begin requesting at virtual time ``at``; stop issuing at ``until``."""
        self.end_time = until
        self.sim.schedule_at(at, self._pump)

    @property
    def uplink(self) -> Face:
        return self.faces[0]

    # ------------------------------------------------------------------
    # Content selection
    # ------------------------------------------------------------------
    def _peek_next(self) -> Tuple[CatalogEntry, int]:
        """The next chunk to request, without consuming it."""
        if self._cursor is None or self._cursor[1] >= self._cursor[0].num_chunks:
            entry = self.catalog[self._zipf.sample()]
            self._cursor = (entry, 0)
        return self._cursor

    def _advance(self) -> None:
        entry, index = self._cursor
        self._cursor = (entry, index + 1)

    # ------------------------------------------------------------------
    # Tag acquisition (overridden by attacker modes)
    # ------------------------------------------------------------------
    def _acquire_tag(self, provider_id: str) -> Tuple[Optional[Tag], bool]:
        """Return ``(tag, ready)``; ``ready=False`` pauses the pump.

        A missing or expired tag triggers one in-flight registration
        request per provider; the pump resumes on the response.
        """
        tag = self.tags.get(provider_id)
        if tag is not None and not tag.is_expired(self.sim.now):
            return tag, True
        if provider_id not in self._registration_pending:
            self._send_registration(provider_id)
        return None, False

    def _send_registration(self, provider_id: str) -> None:
        self._registration_seq += 1
        name = Name(f"/{provider_id}/register/{self.node_id}/{self._registration_seq}")
        interest = Interest(
            name=name,
            credentials=self.credentials.get(provider_id),
            issued_at=self.sim.now,
            lifetime=self.config.request_lifetime,
            requester_id=self.node_id,
        )
        timeout = self.sim.schedule(
            self.config.request_lifetime, self._on_registration_timeout, provider_id
        )
        self._registration_pending[provider_id] = _PendingRegistration(
            name=name, timeout_event=timeout, nonce=interest.nonce,
            issued_at=self.sim.now,
        )
        self.stats.tags_requested += 1
        self.stats.tag_request_times.append(self.sim.now)
        self._trace_span_start(interest, kind="registration")
        self.send(self.uplink, interest)

    def _on_registration_timeout(self, provider_id: str) -> None:
        pending = self._registration_pending.pop(provider_id, None)
        if pending is not None:
            self._trace_span_end(pending.nonce, "timeout", self.config.request_lifetime)
            self._pump()

    # ------------------------------------------------------------------
    # Interest-lifecycle span emission (no-ops unless subscribed)
    # ------------------------------------------------------------------
    def _trace_span_start(self, interest: Interest, kind: str) -> None:
        trace = self.sim.trace
        if trace._n_subs and trace.wants("span.start"):
            trace.emit(
                "span.start", self.sim.now,
                span=interest.nonce, node=self.node_id,
                content=str(interest.name), kind=kind,
            )

    def _trace_span_end(self, span: int, outcome: str, latency: float) -> None:
        trace = self.sim.trace
        if trace._n_subs and span and trace.wants("span.end"):
            trace.emit(
                "span.end", self.sim.now,
                span=span, node=self.node_id, outcome=outcome, latency=latency,
            )

    # ------------------------------------------------------------------
    # The window pump
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        self._retry_scheduled = False
        if self.sim.now >= self.end_time:
            return
        while len(self._outstanding) < self.config.window_size:
            entry, chunk_index = self._peek_next()
            tag, ready = self._acquire_tag(entry.provider_id)
            if not ready:
                self._schedule_retry_if_idle(entry.provider_id)
                return
            name = entry.chunk_name(chunk_index)
            if name._uri in self._outstanding:
                self._advance()
                continue
            self._send_interest(name, tag)
            self._advance()

    def _schedule_retry_if_idle(self, provider_id: str) -> None:
        """Keep the pump alive when no registration response will fire it
        (e.g. an attacker waiting on a shared tag that never arrives)."""
        if provider_id in self._registration_pending or self._retry_scheduled:
            return
        self._retry_scheduled = True
        self.sim.schedule(self.config.request_lifetime, self._pump)

    def _send_interest(self, name: Name, tag: Optional[Tag]) -> None:
        interest = Interest(
            name=name,
            tag=tag,  # tags are immutable once signed; safe to share
            issued_at=self.sim.now,
            lifetime=self.config.request_lifetime,
            requester_id=self.node_id,
        )
        if self.config.client_signatures and self.keypair is not None:
            interest.client_signature = self.keypair.sign(interest.signed_portion())
        timeout = self.sim.schedule(
            self.config.request_lifetime, self._on_timeout, name, interest.nonce
        )
        self._outstanding[name._uri] = _Outstanding(
            issued_at=self.sim.now, nonce=interest.nonce, timeout_event=timeout
        )
        self.stats.chunks_requested += 1
        if self.sim.trace._n_subs:
            self._trace_span_start(interest, kind="content")
        self.send(self.uplink, interest)

    def _on_timeout(self, name: Name, nonce: int) -> None:
        pending = self._outstanding.get(name._uri)
        if pending is None or pending.nonce != nonce:
            return
        if (
            pending.retries < self.config.max_retransmissions
            and self.sim.now < self.end_time
        ):
            self._retransmit(name, pending)
            return
        del self._outstanding[name._uri]
        self.stats.timeouts += 1
        self._trace_span_end(pending.nonce, "timeout", self.sim.now - pending.issued_at)
        self._pump()

    def _retransmit(self, name: Name, pending: _Outstanding) -> None:
        """Re-send an expired request in place (same window slot)."""
        provider_id = name[0]
        tag = self.tags.get(provider_id)
        if tag is not None and tag.is_expired(self.sim.now):
            tag = None  # stale; the interest goes out bare and may NACK
        interest = Interest(
            name=name,
            tag=tag,
            issued_at=self.sim.now,
            lifetime=self.config.request_lifetime,
            requester_id=self.node_id,
        )
        self._trace_span_end(
            pending.nonce, "retransmit", self.sim.now - pending.issued_at
        )
        pending.retries += 1
        pending.nonce = interest.nonce
        pending.issued_at = self.sim.now
        pending.timeout_event = self.sim.schedule(
            self.config.request_lifetime, self._on_timeout, name, interest.nonce
        )
        self.stats.retransmissions += 1
        self._trace_span_start(interest, kind="content")
        self.send(self.uplink, interest)

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def on_data(self, data: Data, in_face: Face) -> None:
        if data.is_tag_response():
            self._on_tag_response(data)
            return
        name = data.name
        if type(name) is not Name:
            name = Name(name)
        pending = self._outstanding.pop(name._uri, None)
        if pending is None:
            return
        pending.timeout_event.cancel()
        if data.nack is not None:
            self.stats.nacks_received += 1
            if self.sim.trace._n_subs:
                self._trace_span_end(
                    pending.nonce, "nack", self.sim.now - pending.issued_at
                )
        else:
            self.stats.chunks_received += 1
            if self.can_consume(data):
                self.stats.chunks_usable += 1
            self.stats.latency_samples.append(
                (self.sim.now, self.sim.now - pending.issued_at)
            )
            if self.sim.trace._n_subs:
                self._trace_span_end(
                    pending.nonce, "data", self.sim.now - pending.issued_at
                )
        self._pump()

    def can_consume(self, data: Data) -> bool:
        """Whether this user can decrypt ``data``.

        Under TACTIC, delivery implies authorization (the network
        already enforced it), so received means usable.  Client-side
        schemes override this with an actual key check.
        """
        return True

    def _on_tag_response(self, data: Data) -> None:
        provider_id = Name(data.name)[0]
        pending = self._registration_pending.pop(provider_id, None)
        if pending is not None:
            pending.timeout_event.cancel()
            self._trace_span_end(
                pending.nonce, "tag", self.sim.now - pending.issued_at
            )
        self.tags[provider_id] = data.tag_response
        self.stats.tags_received += 1
        self.stats.tag_receive_times.append(self.sim.now)
        if data.wrapped_key is not None and self.keypair is not None:
            from repro.crypto.keywrap import KeyWrapError, unwrap_key

            try:
                self.master_keys[provider_id] = unwrap_key(self.keypair, data.wrapped_key)
            except KeyWrapError:
                pass  # corrupted response; the next registration retries
        self._pump()

    def on_nack(self, nack: Nack, in_face: Face) -> None:
        pending = self._outstanding.pop(Name(nack.name)._uri, None)
        if pending is None:
            return
        pending.timeout_event.cancel()
        self.stats.nacks_received += 1
        self._trace_span_end(pending.nonce, "nack", self.sim.now - pending.issued_at)
        self._pump()
