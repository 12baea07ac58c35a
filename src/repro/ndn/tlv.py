"""NDN TLV wire encoding.

Implements the NDN packet format's Type-Length-Value primitives
(variable-length numbers per the NDN spec: 1 byte below 253, then
0xFD/0xFE/0xFF prefixes for 2/4/8-byte widths) and full codecs for the
simulator's packet types, including TACTIC's extension fields.

The simulator forwards Python objects for speed and uses analytic
``size_bytes()`` estimates for link serialization; this module provides
the *real* wire forms — round-trip tested, and used to validate that
the size estimates are honest (see ``tests/test_ndn_tlv.py``).

TLV type assignments: standard NDN numbers where they exist (Interest
0x05, Data 0x06, Name 0x07, component 0x08, nonce 0x0A, content 0x15,
signature value 0x17); TACTIC extensions live in the application range
(0x80-0x9F).
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.ndn.name import Name
from repro.ndn.packets import AttachedNack, Data, Interest, Nack, NackReason, Packet

if TYPE_CHECKING:  # runtime import would be circular (core imports ndn)
    from repro.core.tag import Tag

# --- Standard NDN TLV types -------------------------------------------
TLV_INTEREST = 0x05
TLV_DATA = 0x06
TLV_NAME = 0x07
TLV_NAME_COMPONENT = 0x08
TLV_NONCE = 0x0A
TLV_CONTENT = 0x15
TLV_SIGNATURE_VALUE = 0x17

# --- TACTIC / simulator extension types (application range) ------------
TLV_TAG = 0x80
TLV_TAG_PROVIDER_LOCATOR = 0x81
TLV_TAG_CLIENT_LOCATOR = 0x82
TLV_TAG_ACCESS_LEVEL = 0x83
TLV_TAG_ACCESS_PATH = 0x84
TLV_TAG_EXPIRY = 0x85
TLV_TAG_SIGNATURE = 0x86
TLV_FLAG_F = 0x87
TLV_OBSERVED_PATH = 0x88
TLV_LIFETIME = 0x89
TLV_CREDENTIALS = 0x8A
TLV_ACCESS_LEVEL_D = 0x8B
TLV_PROVIDER_LOCATOR_D = 0x8C
TLV_ATTACHED_NACK = 0x8D
TLV_NACK_REASON = 0x8E
TLV_NACK_TAG_KEY = 0x8F
TLV_WRAPPED_KEY = 0x90
TLV_TAG_RESPONSE = 0x91
TLV_STANDALONE_NACK = 0x92
TLV_PAYLOAD_SIZE = 0x93


class TlvError(ValueError):
    """Malformed TLV input."""


# ----------------------------------------------------------------------
# Varint (NDN "variable-length number")
# ----------------------------------------------------------------------
def encode_varnum(value: int) -> bytes:
    if value < 0:
        raise TlvError(f"negative varnum {value}")
    if value < 0xFD:
        return bytes([value])
    if value <= 0xFFFF:
        return b"\xfd" + value.to_bytes(2, "big")
    if value <= 0xFFFFFFFF:
        return b"\xfe" + value.to_bytes(4, "big")
    return b"\xff" + value.to_bytes(8, "big")


def decode_varnum(buf: bytes, offset: int) -> Tuple[int, int]:
    """Returns (value, next_offset)."""
    if offset >= len(buf):
        raise TlvError("truncated varnum")
    first = buf[offset]
    if first < 0xFD:
        return first, offset + 1
    widths = {0xFD: 2, 0xFE: 4, 0xFF: 8}
    width = widths[first]
    end = offset + 1 + width
    if end > len(buf):
        raise TlvError("truncated varnum body")
    return int.from_bytes(buf[offset + 1 : end], "big"), end


def encode_tlv(tlv_type: int, value: bytes) -> bytes:
    return encode_varnum(tlv_type) + encode_varnum(len(value)) + value


def iter_tlvs(buf: bytes) -> Iterator[Tuple[int, bytes]]:
    """Yield (type, value) pairs from a concatenated TLV sequence."""
    offset = 0
    while offset < len(buf):
        tlv_type, offset = decode_varnum(buf, offset)
        length, offset = decode_varnum(buf, offset)
        end = offset + length
        if end > len(buf):
            raise TlvError(f"TLV {tlv_type:#x} overruns buffer")
        yield tlv_type, buf[offset:end]
        offset = end


def _first(buf: bytes, wanted: int) -> Optional[bytes]:
    for tlv_type, value in iter_tlvs(buf):
        if tlv_type == wanted:
            return value
    return None


# ----------------------------------------------------------------------
# Names
# ----------------------------------------------------------------------
def encode_name(name: Name) -> bytes:
    body = b"".join(
        encode_tlv(TLV_NAME_COMPONENT, c.encode("utf-8")) for c in Name(name)
    )
    return encode_tlv(TLV_NAME, body)


def decode_name(value: bytes) -> Name:
    components: List[str] = []
    for tlv_type, component in iter_tlvs(value):
        if tlv_type != TLV_NAME_COMPONENT:
            raise TlvError(f"unexpected TLV {tlv_type:#x} inside a name")
        components.append(component.decode("utf-8"))
    try:
        return Name(components)
    except ValueError as exc:  # an empty component or one holding '/'
        raise TlvError(str(exc)) from None


# ----------------------------------------------------------------------
# Tags
# ----------------------------------------------------------------------
def encode_tag(tag: "Tag") -> bytes:
    level = -1 if tag.access_level is None else tag.access_level
    body = b"".join(
        [
            encode_tlv(TLV_TAG_PROVIDER_LOCATOR, tag.provider_key_locator.encode()),
            encode_tlv(TLV_TAG_CLIENT_LOCATOR, tag.client_key_locator.encode()),
            encode_tlv(TLV_TAG_ACCESS_LEVEL, struct.pack(">i", level)),
            encode_tlv(TLV_TAG_ACCESS_PATH, tag.access_path),
            encode_tlv(TLV_TAG_EXPIRY, struct.pack(">d", tag.expiry)),
            encode_tlv(TLV_TAG_SIGNATURE, tag.signature),
        ]
    )
    return encode_tlv(TLV_TAG, body)


def decode_tag(value: bytes) -> "Tag":
    from repro.core.tag import Tag

    fields = dict(iter_tlvs(value))
    try:
        level = struct.unpack(">i", fields[TLV_TAG_ACCESS_LEVEL])[0]
        return Tag(
            provider_key_locator=fields[TLV_TAG_PROVIDER_LOCATOR].decode(),
            client_key_locator=fields[TLV_TAG_CLIENT_LOCATOR].decode(),
            access_level=None if level < 0 else level,
            access_path=fields[TLV_TAG_ACCESS_PATH],
            expiry=struct.unpack(">d", fields[TLV_TAG_EXPIRY])[0],
            signature=fields[TLV_TAG_SIGNATURE],
        )
    except KeyError as missing:
        raise TlvError(f"tag missing field {missing}") from None


# ----------------------------------------------------------------------
# Interests
# ----------------------------------------------------------------------
def encode_interest(interest: Interest) -> bytes:
    parts = [
        encode_name(interest.name),
        encode_tlv(TLV_NONCE, struct.pack(">Q", interest.nonce)),
        encode_tlv(TLV_FLAG_F, struct.pack(">d", interest.flag_f)),
        encode_tlv(TLV_OBSERVED_PATH, interest.observed_access_path),
        encode_tlv(TLV_LIFETIME, struct.pack(">d", interest.lifetime)),
    ]
    if interest.tag is not None:
        parts.append(encode_tag(interest.tag))
    if interest.credentials is not None:
        parts.append(encode_tlv(TLV_CREDENTIALS, interest.credentials))
    return encode_tlv(TLV_INTEREST, b"".join(parts))


def decode_interest(buf: bytes) -> Interest:
    outer = _first(buf, TLV_INTEREST)
    if outer is None:
        raise TlvError("not an Interest")
    name = None
    kwargs = {}
    for tlv_type, value in iter_tlvs(outer):
        if tlv_type == TLV_NAME:
            name = decode_name(value)
        elif tlv_type == TLV_NONCE:
            kwargs["nonce"] = struct.unpack(">Q", value)[0]
        elif tlv_type == TLV_FLAG_F:
            kwargs["flag_f"] = struct.unpack(">d", value)[0]
        elif tlv_type == TLV_OBSERVED_PATH:
            kwargs["observed_access_path"] = value
        elif tlv_type == TLV_LIFETIME:
            kwargs["lifetime"] = struct.unpack(">d", value)[0]
        elif tlv_type == TLV_TAG:
            kwargs["tag"] = decode_tag(value)
        elif tlv_type == TLV_CREDENTIALS:
            kwargs["credentials"] = value
    if name is None:
        raise TlvError("Interest missing name")
    return Interest(name=name, **kwargs)


# ----------------------------------------------------------------------
# Data
# ----------------------------------------------------------------------
_REASON_CODES = {reason: i for i, reason in enumerate(NackReason)}
_REASON_FROM_CODE = {i: reason for reason, i in _REASON_CODES.items()}


def encode_data(data: Data) -> bytes:
    parts = [
        encode_name(data.name),
        encode_tlv(TLV_CONTENT, data.payload),
        encode_tlv(TLV_PAYLOAD_SIZE, struct.pack(">I", data.payload_size)),
        encode_tlv(TLV_PROVIDER_LOCATOR_D, data.provider_key_locator.encode()),
        encode_tlv(TLV_SIGNATURE_VALUE, data.signature),
        encode_tlv(TLV_FLAG_F, struct.pack(">d", data.flag_f)),
    ]
    level = -1 if data.access_level is None else data.access_level
    parts.append(encode_tlv(TLV_ACCESS_LEVEL_D, struct.pack(">i", level)))
    if data.tag is not None:
        parts.append(encode_tag(data.tag))
    if data.nack is not None:
        nack_body = encode_tlv(TLV_NACK_TAG_KEY, data.nack.tag_key) + encode_tlv(
            TLV_NACK_REASON, bytes([_REASON_CODES[data.nack.reason]])
        )
        parts.append(encode_tlv(TLV_ATTACHED_NACK, nack_body))
    if data.tag_response is not None:
        parts.append(encode_tlv(TLV_TAG_RESPONSE, encode_tag(data.tag_response)))
    if data.wrapped_key is not None:
        parts.append(encode_tlv(TLV_WRAPPED_KEY, data.wrapped_key))
    return encode_tlv(TLV_DATA, b"".join(parts))


def decode_data(buf: bytes) -> Data:
    outer = _first(buf, TLV_DATA)
    if outer is None:
        raise TlvError("not a Data packet")
    name = None
    kwargs = {}
    for tlv_type, value in iter_tlvs(outer):
        if tlv_type == TLV_NAME:
            name = decode_name(value)
        elif tlv_type == TLV_CONTENT:
            kwargs["payload"] = value
        elif tlv_type == TLV_PAYLOAD_SIZE:
            kwargs["payload_size"] = struct.unpack(">I", value)[0]
        elif tlv_type == TLV_PROVIDER_LOCATOR_D:
            kwargs["provider_key_locator"] = value.decode()
        elif tlv_type == TLV_SIGNATURE_VALUE:
            kwargs["signature"] = value
        elif tlv_type == TLV_FLAG_F:
            kwargs["flag_f"] = struct.unpack(">d", value)[0]
        elif tlv_type == TLV_ACCESS_LEVEL_D:
            level = struct.unpack(">i", value)[0]
            kwargs["access_level"] = None if level < 0 else level
        elif tlv_type == TLV_TAG:
            kwargs["tag"] = decode_tag(value)
        elif tlv_type == TLV_ATTACHED_NACK:
            fields = dict(iter_tlvs(value))
            kwargs["nack"] = AttachedNack(
                tag_key=fields[TLV_NACK_TAG_KEY],
                reason=_REASON_FROM_CODE[fields[TLV_NACK_REASON][0]],
            )
        elif tlv_type == TLV_TAG_RESPONSE:
            inner = _first(value, TLV_TAG)
            kwargs["tag_response"] = decode_tag(inner)
        elif tlv_type == TLV_WRAPPED_KEY:
            kwargs["wrapped_key"] = value
    if name is None:
        raise TlvError("Data missing name")
    return Data(name=name, **kwargs)


# ----------------------------------------------------------------------
# Standalone NACKs
# ----------------------------------------------------------------------
def encode_nack(nack: Nack) -> bytes:
    body = (
        encode_name(nack.name)
        + encode_tlv(TLV_NACK_REASON, bytes([_REASON_CODES[nack.reason]]))
        + encode_tlv(TLV_NONCE, struct.pack(">Q", nack.nonce))
    )
    return encode_tlv(TLV_STANDALONE_NACK, body)


def decode_nack(buf: bytes) -> Nack:
    outer = _first(buf, TLV_STANDALONE_NACK)
    if outer is None:
        raise TlvError("not a NACK")
    fields = dict(iter_tlvs(outer))
    return Nack(
        name=decode_name(fields[TLV_NAME]),
        reason=_REASON_FROM_CODE[fields[TLV_NACK_REASON][0]],
        nonce=struct.unpack(">Q", fields[TLV_NONCE])[0],
    )


def encode_packet(packet: Packet) -> bytes:
    """Encode any simulator packet to its wire form."""
    if isinstance(packet, Interest):
        return encode_interest(packet)
    if isinstance(packet, Data):
        return encode_data(packet)
    if isinstance(packet, Nack):
        return encode_nack(packet)
    raise TlvError(f"cannot encode {type(packet)!r}")


def decode_packet(buf: bytes) -> Packet:
    """Decode a wire buffer into the matching packet object."""
    for tlv_type, _ in iter_tlvs(buf):
        if tlv_type == TLV_INTEREST:
            return decode_interest(buf)
        if tlv_type == TLV_DATA:
            return decode_data(buf)
        if tlv_type == TLV_STANDALONE_NACK:
            return decode_nack(buf)
        break
    raise TlvError("unrecognized packet type")
