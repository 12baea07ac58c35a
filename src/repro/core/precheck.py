"""Protocol 1: the tag pre-check procedure.

"Our low-cost tag pre-check protocol ... employed by routers in RE and
RcC to validate the received tag using the tag's ALu, expiry time (Te),
and provider's name prefix before the more expensive BF lookup and
signature verification operations."

Two halves, matching the protocol listing:

- the **edge-router** half compares the provider name prefix extracted
  from the tag against the requested content's name prefix (preventing
  a tag from provider A retrieving provider B's content) and rejects
  expired tags,
- the **content-router** half enforces the hierarchical access-level
  rule ``ALD <= ALTu`` and requires the provider key locator in the tag
  to match the one embedded in the content packet.

Both halves return the :class:`~repro.ndn.packets.NackReason` explaining
the failure, or ``None`` when the check passes.
"""

from __future__ import annotations

from typing import Optional

from repro.core.access_level import satisfies
from repro.core.tag import Tag
from repro.ndn.name import Name, NameLike
from repro.ndn.packets import Data, NackReason


def edge_precheck(tag: Tag, content_name: NameLike, now: float) -> Optional[NackReason]:
    """Protocol 1, lines 1-7 (at the edge router).

    >>> from repro.core.tag import Tag
    >>> t = Tag('/prov-0/KEY/pub', '/client-0/KEY/pub', 1, b'\\x00'*32, 50.0)
    >>> edge_precheck(t, '/prov-0/obj-1/chunk-0', now=10.0) is None
    True
    >>> edge_precheck(t, '/prov-1/obj-1/chunk-0', now=10.0)
    <NackReason.PREFIX_MISMATCH: 'prefix-mismatch'>
    >>> edge_precheck(t, '/prov-0/obj-1/chunk-0', now=99.0)
    <NackReason.EXPIRED_TAG: 'expired-tag'>
    """
    if type(content_name) is not Name:
        content_name = Name(content_name)
    if not content_name.components:
        return NackReason.PREFIX_MISMATCH
    if not tag.provider_prefix().is_prefix_of(content_name):
        return NackReason.PREFIX_MISMATCH
    if tag.is_expired(now):
        return NackReason.EXPIRED_TAG
    return None


def content_precheck(tag: Optional[Tag], data: Data) -> Optional[NackReason]:
    """Protocol 1, lines 8-14 (at the content router).

    Public content (``ALD`` is NULL) passes regardless of the tag --
    "we set the ALD of a publicly available data to NULL, which allows
    an rcC to return the requested content without tag verification."
    """
    if data.access_level is None:
        return None
    if tag is None:
        return NackReason.NO_TAG
    if not satisfies(tag.access_level, data.access_level):
        return NackReason.ACCESS_LEVEL
    if data.provider_key_locator != tag.provider_key_locator:
        return NackReason.KEY_MISMATCH
    return None
