"""NDN packet types, extended with TACTIC's fields.

Three wire-level packets circulate:

- :class:`Interest` -- a named request.  TACTIC extends it with the
  client's tag, the edge/content-router collaboration flag ``F``
  (Section 4.C), and the access path observed by the network entities
  the request traversed (Section 4.A).
- :class:`Data` -- a named content packet.  TACTIC extends it with the
  content access level ``ALD``, the provider's public key locator, the
  echoed ``F`` flag, the tag of the request it answers (the paper's
  ``<D, Tu>`` pair), and an optional attached NACK (the paper's
  ``<D, Tu, NACK>`` triple: content still flows downstream so valid
  aggregated requests can be satisfied).
- :class:`Nack` -- a standalone rejection an edge router sends to a
  client whose request failed pre-checks (Protocol 2, line 2).

Packets are mutable because routers rewrite ``F`` in flight; always
:meth:`~Interest.copy` before forwarding on multiple faces.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.ndn.name import Name

class _NonceCounter:
    """Process-global Interest nonce allocator (never instantiated)."""

    __slots__ = ()

    _iter = itertools.count(1)

    @classmethod
    def take(cls) -> int:
        return next(cls._iter)

    @classmethod
    def reset(cls) -> None:
        cls._iter = itertools.count(1)


def reset_nonce_counter() -> None:
    """Restart nonce allocation at 1.

    Called once per scenario build so nonce values depend only on the
    scenario, never on how many packets earlier runs in the same
    process created — simulations (and their state-footprint
    accounting) stay identical whether they execute in a fresh worker
    or after other runs.
    """
    _NonceCounter.reset()

#: Fixed header overheads (bytes), approximating NDN TLV framing.
INTEREST_BASE_SIZE = 32
DATA_BASE_SIZE = 48
NACK_BASE_SIZE = 24
SIGNATURE_SIZE = 64
ACCESS_PATH_SIZE = 32


class NackReason(enum.Enum):
    """Why a router rejected a request."""

    INVALID_SIGNATURE = "invalid-signature"
    EXPIRED_TAG = "expired-tag"
    PREFIX_MISMATCH = "prefix-mismatch"
    ACCESS_LEVEL = "insufficient-access-level"
    KEY_MISMATCH = "provider-key-mismatch"
    ACCESS_PATH = "access-path-mismatch"
    NO_TAG = "missing-tag"
    NO_ROUTE = "no-route"
    UNAUTHORIZED = "registration-refused"


@dataclass(slots=True)
class Interest:
    """A named request carrying TACTIC authentication state."""

    name: Name
    tag: Optional[Any] = None  # repro.core.tag.Tag (duck-typed to avoid cycle)
    flag_f: float = 0.0
    observed_access_path: bytes = b"\x00" * ACCESS_PATH_SIZE
    nonce: int = field(default_factory=_NonceCounter.take)
    lifetime: float = 1.0
    issued_at: float = 0.0
    # Simulation instrumentation (not wire fields): who originated the
    # request, for metric attribution only — protocol code must not read it.
    requester_id: str = ""
    # Registration payload: opaque credential blob for provider sign-up.
    credentials: Optional[bytes] = None
    # Client request signature (Section 4.A: "to prevent the
    # impersonation attack ... clients have to sign their requests");
    # empty when the access-path fast path is in use instead.
    client_signature: bytes = b""

    def copy(self) -> "Interest":
        # Field-wise slot copy: packets are __slots__ classes (no
        # __dict__ to bulk-update), and skipping __init__ avoids the
        # nonce counter.
        clone = Interest.__new__(Interest)
        clone.name = self.name
        clone.tag = self.tag
        clone.flag_f = self.flag_f
        clone.observed_access_path = self.observed_access_path
        clone.nonce = self.nonce
        clone.lifetime = self.lifetime
        clone.issued_at = self.issued_at
        clone.requester_id = self.requester_id
        clone.credentials = self.credentials
        clone.client_signature = self.client_signature
        return clone

    def is_registration(self) -> bool:
        """Registration interests use the /<provider>/register/... namespace."""
        components = self.name.components
        return len(components) >= 2 and components[1] == "register"

    def signed_portion(self) -> bytes:
        """Bytes a client signs: the name plus the nonce (replay-fresh)."""
        return f"{self.name.to_uri()}#{self.nonce}".encode("utf-8")

    def size_bytes(self) -> int:
        # name._esize and tag._esize are sizes the immutable name and
        # tag computed at construction — no per-hop call or re-encode.
        size = INTEREST_BASE_SIZE + self.name._esize + ACCESS_PATH_SIZE
        tag = self.tag
        if tag is not None:
            size += tag._esize
        if self.credentials is not None:
            size += len(self.credentials)
        size += len(self.client_signature)
        return size


@dataclass(slots=True)
class AttachedNack:
    """NACK attached to a Data packet: the paper's ``<D, T, NACK>``."""

    tag_key: bytes  # cache key of the offending tag
    reason: NackReason


@dataclass(slots=True)
class Data:
    """A named content (or registration-response) packet."""

    name: Name
    payload: bytes = b""
    payload_size: int = 0  # used instead of a real payload for bulk sims
    access_level: Optional[int] = None  # ALD; None = public content
    provider_key_locator: str = ""
    signature: bytes = b""
    flag_f: float = 0.0
    tag: Optional[Any] = None  # the request tag this Data answers (<D, Tu>)
    nack: Optional[AttachedNack] = None
    # Registration responses deliver a fresh tag plus the wrapped
    # content-decryption key (Section 6: "encrypt the content decryption
    # key with the client's public key and send it along with her tag").
    tag_response: Optional[Any] = None
    wrapped_key: Optional[bytes] = None
    freshness: float = 10.0
    created_at: float = 0.0
    # Simulation instrumentation (not a wire field): the Interest span
    # this copy answers — the requesting Interest's nonce, stamped where
    # a Data copy is bound to a PIT record or origin request.  0 = no
    # span.  Protocol code must not read it.
    span_id: int = 0
    #: Opaque application metadata (e.g. a broadcast-encryption
    #: enclosure's key-sharing generation).  Wire size must be folded
    #: into ``payload_size`` by whoever attaches it.
    app_meta: Optional[dict] = None

    def copy(self) -> "Data":
        clone = Data.__new__(Data)
        clone.name = self.name
        clone.payload = self.payload
        clone.payload_size = self.payload_size
        clone.access_level = self.access_level
        clone.provider_key_locator = self.provider_key_locator
        clone.signature = self.signature
        clone.flag_f = self.flag_f
        clone.tag = self.tag
        clone.nack = self.nack
        clone.tag_response = self.tag_response
        clone.wrapped_key = self.wrapped_key
        clone.freshness = self.freshness
        clone.created_at = self.created_at
        clone.span_id = self.span_id
        clone.app_meta = self.app_meta
        return clone

    def is_tag_response(self) -> bool:
        return self.tag_response is not None

    def effective_payload_size(self) -> int:
        return len(self.payload) if self.payload else self.payload_size

    def size_bytes(self) -> int:
        payload = self.payload
        size = (
            DATA_BASE_SIZE
            + self.name._esize
            + (len(payload) if payload else self.payload_size)
            + SIGNATURE_SIZE
        )
        tag = self.tag
        if tag is not None:
            size += tag._esize
        if self.nack is not None:
            size += NACK_BASE_SIZE
        if self.tag_response is not None:
            size += self.tag_response._esize
        if self.wrapped_key is not None:
            size += len(self.wrapped_key)
        return size


@dataclass(slots=True)
class Nack:
    """Standalone NACK from an edge router to a client."""

    name: Name
    reason: NackReason
    nonce: int = 0

    def copy(self) -> "Nack":
        return replace(self)

    def size_bytes(self) -> int:
        return NACK_BASE_SIZE + self.name.encoded_size()


Packet = Any  # Interest | Data | Nack (kept loose for Python 3.9)


def packet_span_id(packet: Packet) -> int:
    """The Interest-lifecycle span a packet belongs to, or 0.

    Interests and standalone NACKs are identified by their nonce; Data
    copies carry the explicit ``span_id`` stamped when they were bound
    to a PIT record (or to the origin request).
    """
    return getattr(packet, "span_id", 0) or getattr(packet, "nonce", 0)
