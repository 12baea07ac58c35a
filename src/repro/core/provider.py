"""The content provider: registration, tag issuance, and publishing.

Section 4.A: "a client u registers her credential with a content
provider p to obtain an authentication tag ... When p receives a tag
request, it verifies client u's credentials and provides her a fresh
tag if she is authorized or drops the request otherwise."

The provider also acts as the origin for its catalog: the first request
for every chunk reaches it before caches warm up, and it applies the
same Protocol 3 validation a content router would.

Key delivery (Section 6): the registration response carries, besides
the signed tag, the provider's catalog master key wrapped under the
client's public key; per-object content keys are derived from it, so a
client holding the unwrapped master key can decrypt any object its
access level entitles it to retrieve.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.core.access_level import validate_level
from repro.core.config import TacticConfig
from repro.core.content_router import ContentRouterMixin
from repro.core.router_base import TacticRouterBase
from repro.core.tag import Tag, make_tag
from repro.crypto.chacha20 import chacha20_encrypt
from repro.crypto.keywrap import wrap_key
from repro.crypto.pki import Certificate, CertificateStore
from repro.ndn.link import Face
from repro.ndn.name import Name, NameLike
from repro.ndn.packets import Data, Interest
from repro.sim.engine import Simulator

if TYPE_CHECKING:
    # Imported lazily at runtime inside manifest_for (import-cycle
    # avoidance); the annotation only needs the name at check time.
    from repro.ndn.manifest import Manifest


@dataclass
class DirectoryEntry:
    """One authorized client as the provider knows it."""

    user_id: str
    secret: bytes
    access_level: int
    public_key: object = None
    revoked: bool = False


class ClientDirectory:
    """The provider's authorization database.

    Credentials are a shared secret established out of band (account
    creation); registration requests must present it.  Revocation here
    stops *re-registration* — already-issued tags die by expiry, which
    is TACTIC's revocation story.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, DirectoryEntry] = {}

    def enroll(
        self,
        user_id: str,
        access_level: int,
        public_key: object = None,
    ) -> bytes:
        """Add a client; returns the credential secret it must present."""
        secret = hashlib.sha256(f"credential:{user_id}".encode()).digest()
        self._entries[user_id] = DirectoryEntry(
            user_id=user_id,
            secret=secret,
            access_level=validate_level(access_level),
            public_key=public_key,
        )
        return secret

    def revoke(self, user_id: str) -> None:
        entry = self._entries.get(user_id)
        if entry is not None:
            entry.revoked = True

    def authenticate(self, user_id: str, credentials: Optional[bytes]) -> Optional[DirectoryEntry]:
        """Return the entry when credentials check out, else None."""
        entry = self._entries.get(user_id)
        if entry is None or entry.revoked or credentials is None:
            return None
        if credentials != entry.secret:
            return None
        return entry

    def access_level_of(self, user_id: str) -> Optional[int]:
        entry = self._entries.get(user_id)
        return entry.access_level if entry is not None else None


@lru_cache(maxsize=None)
def chunk_labels(num_chunks: int) -> FrozenSet[str]:
    """The last name components ``chunk-0`` .. ``chunk-<num_chunks-1>``,
    one set shared by every object with that many chunks."""
    return frozenset(f"chunk-{index}" for index in range(num_chunks))


@dataclass
class ContentObject:
    """One published object: a name prefix fanning out into chunks."""

    prefix: Name
    access_level: Optional[int]
    num_chunks: int
    chunk_size: int
    key_nonce: bytes = b"\x00" * 12

    def chunk_name(self, index: int) -> Name:
        return self.prefix.append(f"chunk-{index}")

    def chunk_names(self) -> List[Name]:
        return [self.chunk_name(i) for i in range(self.num_chunks)]


@dataclass
class ProviderStats:
    """Origin-side counters (not part of Fig. 7's router populations)."""

    tags_issued: int = 0
    registrations_refused: int = 0
    chunks_served: int = 0


class Provider(ContentRouterMixin, TacticRouterBase):
    """A content provider p with its catalog and client directory."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        config: TacticConfig,
        cert_store: CertificateStore,
        keypair: object,
    ) -> None:
        # Providers are origins, not ISP routers: no metrics
        # registration, and an unbounded-enough local store.
        super().__init__(sim, node_id, config, cert_store, metrics=None, is_edge=False)
        self.keypair = keypair
        self.key_locator = f"/{node_id}/KEY/pub"
        self.prefix = Name(f"/{node_id}")
        self.directory = ClientDirectory()
        self.catalog: List[ContentObject] = []
        self.stats = ProviderStats()
        #: Live tags by user, for the explicit-revocation extension
        #: (expired entries are trimmed on each issuance).
        self.issued_tags: Dict[str, List[Tag]] = {}
        #: Availability switch for outage experiments.  TACTIC's point:
        #: cached content stays retrievable while issued tags live, even
        #: with the provider down — only registration stalls.
        self.online = True
        #: Lazily built signed manifests by object prefix.
        self._manifests: Dict[Name, object] = {}
        #: Published objects by prefix components (see content_object).
        self._objects: Dict[Tuple[str, ...], ContentObject] = {}
        self.master_key = hashlib.sha256(f"master:{node_id}".encode()).digest()
        cert_store.register(
            Certificate(
                locator=self.key_locator,
                public_key=keypair.public,
                subject=node_id,
            )
        )

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish_catalog(self, access_levels: List[Optional[int]]) -> None:
        """Create ``objects_per_provider`` objects with the given levels
        (cycled); chunk payloads are generated lazily on request."""
        for index in range(self.config.objects_per_provider):
            level = access_levels[index % len(access_levels)]
            obj = ContentObject(
                prefix=self.prefix / f"obj-{index}",
                access_level=validate_level(level) if level is not None else None,
                num_chunks=self.config.chunks_per_object,
                chunk_size=self.config.chunk_size_bytes,
                key_nonce=hashlib.sha256(f"{self.node_id}:{index}".encode()).digest()[:12],
            )
            self.catalog.append(obj)
            self._objects[obj.prefix.components] = obj

    def content_object(self, name: NameLike) -> Optional[ContentObject]:
        """The published object ``name`` is a chunk of, or None.

        A name matches when its prefix is an object's and its last
        component is one of that object's ``chunk-<i>`` labels.
        """
        if type(name) is not Name:
            name = Name(name)
        components = name.components
        obj = self._objects.get(components[:-1]) if components else None
        if obj is None or components[-1] not in chunk_labels(obj.num_chunks):
            return None
        return obj

    def content_key_for(self, obj: ContentObject) -> bytes:
        """Per-object key derived from the catalog master key."""
        return hashlib.sha256(self.master_key + bytes(obj.prefix.to_uri(), "utf-8")).digest()

    def _chunk_payload(self, obj: ContentObject, name: Name) -> bytes:
        plaintext = hashlib.sha256(name.to_uri().encode()).digest() * (
            obj.chunk_size // 32
        )
        if not self.config.encrypt_payloads:
            return plaintext[: obj.chunk_size]
        return chacha20_encrypt(
            self.content_key_for(obj), obj.key_nonce, plaintext[: obj.chunk_size]
        )

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def on_interest(self, interest: Interest, in_face: Face) -> None:
        if not self.online:
            return  # outage: requests into the origin vanish
        if interest.is_registration():
            self._handle_registration(interest, in_face)
            return
        if self.config.publish_manifests:
            from repro.ndn.manifest import is_manifest_name

            if is_manifest_name(interest.name):
                self._serve_manifest(interest, in_face)
                return
        name = interest.name
        if type(name) is not Name:
            name = Name(name)
        obj = self.content_object(name)
        if obj is None:
            self.unroutable_drops += 1
            return
        data = Data(
            name=name,
            payload=self._chunk_payload(obj, name),
            access_level=obj.access_level,
            provider_key_locator=self.key_locator,
            signature=b"\x00" * 64,  # placeholder content signature (size-modelled)
            created_at=self.sim.now,
        )
        self.stats.chunks_served += 1
        self.serve_content(interest, data, in_face)  # Protocol 3 at origin

    def manifest_for(self, obj: ContentObject) -> "Manifest":
        """The object's signed manifest (built lazily, cached)."""
        from repro.ndn.manifest import Manifest

        cached = self._manifests.get(obj.prefix)
        if cached is not None:
            return cached
        payloads = [self._chunk_payload(obj, name) for name in obj.chunk_names()]
        manifest = Manifest.build(obj.prefix, payloads).sign_with(self.keypair)
        self._manifests[obj.prefix] = manifest
        return manifest

    def _serve_manifest(self, interest: Interest, in_face: Face) -> None:
        """Serve ``<object>/manifest`` with the object's access level
        (manifests inherit their object's access control)."""
        object_prefix = Name(interest.name).parent
        obj = next((o for o in self.catalog if o.prefix == object_prefix), None)
        if obj is None:
            self.unroutable_drops += 1
            return
        manifest = self.manifest_for(obj)
        data = Data(
            name=Name(interest.name),
            payload=manifest.encode(),
            access_level=obj.access_level,
            provider_key_locator=self.key_locator,
            signature=b"\x00" * 64,
            created_at=self.sim.now,
        )
        self.stats.chunks_served += 1
        self.serve_content(interest, data, in_face)

    def _handle_registration(self, interest: Interest, in_face: Face) -> None:
        """Verify credentials and issue a fresh signed tag."""
        # Registration names: /<provider>/register/<user-id>/<seq>
        if len(interest.name) < 3:
            self.stats.registrations_refused += 1
            return
        user_id = interest.name[2]
        entry = self.directory.authenticate(user_id, interest.credentials)
        if entry is None:
            # "drops the request otherwise" — the client's request
            # window recovers via its 1 s expiry.
            self.stats.registrations_refused += 1
            return
        tag = make_tag(
            provider_key_locator=self.key_locator,
            client_key_locator=f"/{user_id}/KEY/pub",
            access_level=entry.access_level,
            access_path=interest.observed_access_path,
            expiry=self.sim.now + self.config.tag_expiry,
            provider_keypair=self.keypair,
        )
        wrapped = (
            wrap_key(entry.public_key, self.master_key)
            if entry.public_key is not None
            else None
        )
        self._record_issued(user_id, tag)
        self.stats.tags_issued += 1
        response = Data(
            name=Name(interest.name),
            tag_response=tag,
            wrapped_key=wrapped,
            provider_key_locator=self.key_locator,
            created_at=self.sim.now,
        )
        response.span_id = interest.nonce
        if self.sim.trace._n_subs:
            self.trace_span_serve(interest)
        delay = self.cost_model.sample("tag_sign", self.rng)
        self.send(in_face, response, delay)

    def issue_tag_direct(self, user_id: str, access_path: bytes) -> Optional[Tag]:
        """Out-of-band tag issuance (tests and attacker setup)."""
        entry = self.directory._entries.get(user_id)
        if entry is None or entry.revoked:
            return None
        self.stats.tags_issued += 1
        tag = make_tag(
            provider_key_locator=self.key_locator,
            client_key_locator=f"/{user_id}/KEY/pub",
            access_level=entry.access_level,
            access_path=access_path,
            expiry=self.sim.now + self.config.tag_expiry,
            provider_keypair=self.keypair,
        )
        self._record_issued(user_id, tag)
        return tag

    def _record_issued(self, user_id: str, tag: Tag) -> None:
        now = self.sim.now
        live = [t for t in self.issued_tags.get(user_id, []) if not t.is_expired(now)]
        live.append(tag)
        self.issued_tags[user_id] = live
        if self.audit is not None:
            # Ground truth for the decision oracle: only tags recorded
            # here count as genuinely issued.
            self.audit.note_issued(tag)
