"""AccConF-style broadcast-encryption baseline (the paper's [3], [7]).

Misra et al.'s framework — the first comparison row of Table II — is
client-side enforcement built on Shamir secret sharing: every Data
packet carries a public *enclosure* of ``t - 1`` shares of the content
key, each enrolled client privately holds one further share, and one
private share plus the enclosure reaches the ``t`` threshold.  Routers
deliver to everyone; outsiders hold only the enclosure and recover
nothing.

Costs this models (Table II's "Moderate" column):

- per-packet communication overhead: the enclosure rides on every Data,
- client-side computation: a Lagrange interpolation per content key,
- revocation: a fresh polynomial plus redistribution of private shares
  to every *surviving* client (vs. TACTIC's zero-cost expiry).

The enclosure generation number is stamped on each Data; a client whose
share predates the current generation must re-register before it can
decrypt again — the rekey storm after each revocation.
"""

from __future__ import annotations

from repro.baselines.client_side import make_plain_core, make_plain_edge
from repro.baselines.interfaces import SchemeSpec
from repro.core.client import Client
from repro.core.provider import Provider
from repro.crypto.shamir import BroadcastEnclosure, Share
from repro.ndn.link import Face
from repro.ndn.name import Name
from repro.ndn.packets import Data, Interest

#: Wire size of one serialized share: 4-byte abscissa + 32-byte ordinate
#: + TLV framing.
SHARE_BYTES = 40


class AccConfProvider(Provider):
    """Serves everyone; attaches the broadcast enclosure to every Data."""

    def __init__(self, sim, node_id, config, cert_store, keypair,
                 threshold: int = 3) -> None:
        super().__init__(sim, node_id, config, cert_store, keypair)
        secret = int.from_bytes(self.master_key, "big") % (2**255)
        self.enclosure = BroadcastEnclosure(
            secret=secret,
            threshold=threshold,
            rng=sim.rng.stream(f"accconf:{node_id}"),
        )
        self.rekeys_sent = 0

    # ------------------------------------------------------------------
    # Enrollment / revocation
    # ------------------------------------------------------------------
    def enclosure_bytes(self) -> int:
        return len(self.enclosure.enclosure) * SHARE_BYTES

    def revoke_and_rekey(self, user_id: str) -> int:
        """Revoke ``user_id``; returns the number of private-share
        refreshes the provider must now deliver (the rekey cost)."""
        self.directory.revoke(user_id)
        fresh = self.enclosure.revoke(user_id)
        self.rekeys_sent += len(fresh)
        return len(fresh)

    # ------------------------------------------------------------------
    # Request handling: no network-side enforcement
    # ------------------------------------------------------------------
    def on_interest(self, interest: Interest, in_face: Face) -> None:
        if not self.online:
            return
        if interest.is_registration():
            self._handle_share_registration(interest, in_face)
            return
        obj = self.content_object(interest.name)
        if obj is None:
            self.unroutable_drops += 1
            return
        self.stats.chunks_served += 1
        data = Data(
            name=Name(interest.name),
            payload_size=obj.chunk_size + self.enclosure_bytes(),
            access_level=obj.access_level,
            provider_key_locator=self.key_locator,
            signature=b"\x00" * 64,
            created_at=self.sim.now,
            app_meta={
                "enclosure": self.enclosure.enclosure,
                "generation": self.enclosure.generation,
            },
        )
        data.tag = interest.tag
        self.send(in_face, data)

    def _handle_share_registration(self, interest: Interest, in_face: Face) -> None:
        """Hand an enrolled client its private share of the current
        generation (the scheme's 'prior authorization process')."""
        if len(interest.name) < 3:
            self.stats.registrations_refused += 1
            return
        user_id = interest.name[2]
        entry = self.directory.authenticate(user_id, interest.credentials)
        if entry is None:
            self.stats.registrations_refused += 1
            return
        share = self.enclosure.enroll(user_id)
        self.stats.tags_issued += 1  # counted as authorization traffic
        response = Data(
            name=Name(interest.name),
            payload_size=SHARE_BYTES,
            provider_key_locator=self.key_locator,
            created_at=self.sim.now,
            app_meta={
                "share": share,
                "generation": self.enclosure.generation,
                "secret_check": self.enclosure.secret,
            },
        )
        self.send(in_face, response)


class AccConfClient(Client):
    """Fetches first, decrypts second: the client-side enforcement model."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: provider_id -> (Share, generation, expected_secret)
        self.shares: dict = {}
        self.lagrange_combines = 0
        self.stale_generation_misses = 0

    # No tags: requests go out immediately; authorization is a share.
    def _acquire_tag(self, provider_id: str):
        if provider_id not in self.shares and provider_id not in self._registration_pending:
            self._send_registration(provider_id)
        return None, True

    def on_data(self, data: Data, in_face: Face) -> None:
        meta = data.app_meta or {}
        if "share" in meta:
            self._on_share_response(data)
            return
        super().on_data(data, in_face)

    def _on_share_response(self, data: Data) -> None:
        provider_id = Name(data.name)[0]
        pending = self._registration_pending.pop(provider_id, None)
        if pending is not None:
            pending.timeout_event.cancel()
        meta = data.app_meta
        self.shares[provider_id] = (
            meta["share"], meta["generation"], meta["secret_check"]
        )
        self.stats.tags_received += 1
        self.stats.tag_receive_times.append(self.sim.now)
        self._pump()

    def can_consume(self, data: Data) -> bool:
        """Combine the private share with the packet's enclosure; fail
        (and schedule a share refresh) on a generation mismatch."""
        meta = data.app_meta or {}
        enclosure = meta.get("enclosure")
        if enclosure is None:
            return True  # non-enclosed (public) content
        provider_id = Name(data.name)[0]
        holding = self.shares.get(provider_id)
        if holding is None:
            return False
        share, generation, expected_secret = holding
        if generation != meta.get("generation"):
            self.stale_generation_misses += 1
            self.shares.pop(provider_id, None)  # force a refresh
            if provider_id not in self._registration_pending:
                self._send_registration(provider_id)
            return False
        self.lagrange_combines += 1
        recovered = BroadcastEnclosure.combine(share, enclosure)
        return recovered == expected_secret  # real Shamir math, end to end


def make_accconf_provider(sim, node_id, config, cert_store, keypair) -> AccConfProvider:
    return AccConfProvider(sim, node_id, config, cert_store, keypair)


ACCCONF_SCHEME = SchemeSpec(
    name="accconf",
    make_edge_router=make_plain_edge,
    make_core_router=make_plain_core,
    make_provider=make_accconf_provider,
    clients_register=False,
    client_factory=AccConfClient,
)
