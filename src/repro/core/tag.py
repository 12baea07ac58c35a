"""The TACTIC authentication tag.

Section 4.A: "A tag is a 6-tuple composed of the provider's public key
locator (Pubp), the client's public key locator (Pubu), the client's
access level (ALu), the client's access path (APu), and an expiry time
(Te), and is represented as Tpu = <Pubp, ALu, Pubu, APu, Te>."  The
provider "generates a new tag, signs it to guarantee its integrity and
provenance, and sends it to u".

(The enumeration lists five named fields for a "6-tuple"; the sixth
element is the provider's signature over the rest, which every router
verifies — we model it exactly so.)
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.core.access_level import validate_level
from repro.ndn.name import Name

#: Wire-size estimate used for link serialization: the paper argues a
#: tag is "a couple hundred bytes" (locator names + 32-byte access path
#: + expiry + signature).
_FIXED_FIELDS_SIZE = 8 + 4 + 32  # expiry + access level + access path


@dataclass(slots=True)
class Tag:
    """A provider-issued, provider-signed authentication tag.

    Attributes
    ----------
    provider_key_locator:
        ``Pubp`` -- name of the provider's public key packet; routers
        resolve it through the PKI and compare its prefix against
        requested content names (Protocol 1).
    client_key_locator:
        ``Pubu`` -- name of the client's public key; lets routers
        authenticate request signatures (kept for fidelity; the fast
        path authenticates via the access path instead).
    access_level:
        ``ALu`` -- the client's access level at this provider.
    access_path:
        ``APu`` -- XOR of hashed identities of the entities between the
        client and its edge router, bound at registration time.
    expiry:
        ``Te`` -- absolute (virtual) expiry time; expiry is TACTIC's
        revocation mechanism.
    signature:
        Provider signature over the canonical encoding of the fields.
    """

    provider_key_locator: str
    client_key_locator: str
    access_level: Optional[int]
    access_path: bytes
    expiry: float
    signature: bytes = b""
    # Derived constants (excluded from identity).  Tags are immutable
    # once signed (``sign_with`` and ``copy`` build a fresh instance
    # through ``__post_init__``), so the cache key and wire size are
    # computed once here and the forwarding path reads ``_cache_key``
    # and ``_esize`` directly; the provider prefix stays lazy, as only
    # the edge pre-check asks for it.
    _cache_key: bytes = field(default=b"", init=False, repr=False, compare=False)
    _esize: int = field(default=0, init=False, repr=False, compare=False)
    _prefix: Optional[Name] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.access_level = validate_level(self.access_level)
        if len(self.access_path) != 32:
            raise ValueError(
                f"access path must be 32 bytes, got {len(self.access_path)}"
            )
        self._cache_key = hashlib.sha256(
            self.signed_bytes() + b"#" + self.signature
        ).digest()
        self._esize = (
            len(self.provider_key_locator)
            + len(self.client_key_locator)
            + _FIXED_FIELDS_SIZE
            + len(self.signature)
        )

    # ------------------------------------------------------------------
    # Canonical encoding and signing
    # ------------------------------------------------------------------
    def signed_bytes(self) -> bytes:
        """Canonical encoding of the five named fields (signature input)."""
        level = -1 if self.access_level is None else self.access_level
        return b"|".join(
            [
                b"TACTICv1",
                self.provider_key_locator.encode("utf-8"),
                self.client_key_locator.encode("utf-8"),
                struct.pack(">i", level),
                self.access_path,
                struct.pack(">d", self.expiry),
            ]
        )

    def sign_with(self, keypair: Any) -> "Tag":
        """Return a copy signed by ``keypair`` (provider-side)."""
        return replace(self, signature=keypair.sign(self.signed_bytes()))

    def verify_signature(self, public_key: Any) -> bool:
        """Router-side integrity/provenance check."""
        if not self.signature:
            return False
        return public_key.verify(self.signed_bytes(), self.signature)

    # ------------------------------------------------------------------
    # Field checks used by Protocol 1
    # ------------------------------------------------------------------
    def provider_prefix(self) -> Name:
        """``N(Pub_p^T)``: the provider name prefix of the key locator.

        Key locators look like ``/prov-3/KEY/pub``; the provider prefix
        is the first component.
        """
        prefix = self._prefix
        if prefix is None:
            locator = Name(self.provider_key_locator)
            prefix = locator if len(locator) == 0 else locator.prefix(1)
            self._prefix = prefix
        return prefix

    def is_expired(self, now: float) -> bool:
        return self.expiry < now

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def cache_key(self) -> bytes:
        """Stable identifier of this exact signed tag (Bloom-filter key):
        SHA-256 over the signed fields and the signature."""
        return self._cache_key

    def encoded_size(self) -> int:
        """Wire-size estimate in bytes."""
        return self._esize

    def copy(self) -> "Tag":
        return replace(self)


def make_tag(
    provider_key_locator: str,
    client_key_locator: str,
    access_level: Optional[int],
    access_path: bytes,
    expiry: float,
    provider_keypair: Any,
) -> Tag:
    """Build and sign a tag in one step (the provider's issuance path)."""
    tag = Tag(
        provider_key_locator=provider_key_locator,
        client_key_locator=client_key_locator,
        access_level=access_level,
        access_path=access_path,
        expiry=expiry,
    )
    return tag.sign_with(provider_keypair)
