"""Tests for the TLV wire codec, including hypothesis round-trips."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.tag import Tag, make_tag
from repro.crypto.sim_signature import SimulatedKeyPair
from repro.ndn.name import Name
from repro.ndn.packets import AttachedNack, Data, Interest, Nack, NackReason
from repro.ndn.tlv import (
    TLV_NAME_COMPONENT,
    TlvError,
    decode_data,
    decode_interest,
    decode_nack,
    decode_name,
    decode_packet,
    decode_tag,
    decode_varnum,
    encode_data,
    encode_interest,
    encode_nack,
    encode_name,
    encode_packet,
    encode_tag,
    encode_tlv,
    encode_varnum,
    iter_tlvs,
)

_KP = SimulatedKeyPair.generate(random.Random(515151))


def sample_tag(**overrides):
    fields = dict(
        provider_key_locator="/prov-0/KEY/pub",
        client_key_locator="/client-0/KEY/pub",
        access_level=2,
        access_path=bytes(range(32)),
        expiry=123.456,
    )
    fields.update(overrides)
    return make_tag(provider_keypair=_KP, **fields)


class TestVarnum:
    @pytest.mark.parametrize(
        "value", [0, 1, 252, 253, 254, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**63]
    )
    def test_roundtrip(self, value):
        encoded = encode_varnum(value)
        decoded, offset = decode_varnum(encoded, 0)
        assert decoded == value and offset == len(encoded)

    def test_width_boundaries(self):
        assert len(encode_varnum(252)) == 1
        assert len(encode_varnum(253)) == 3
        assert len(encode_varnum(65535)) == 3
        assert len(encode_varnum(65536)) == 5

    def test_negative_rejected(self):
        with pytest.raises(TlvError):
            encode_varnum(-1)

    def test_truncated_rejected(self):
        with pytest.raises(TlvError):
            decode_varnum(b"", 0)
        with pytest.raises(TlvError):
            decode_varnum(b"\xfd\x01", 0)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip_property(self, value):
        assert decode_varnum(encode_varnum(value), 0)[0] == value


class TestTlvFraming:
    def test_iter_tlvs(self):
        buf = encode_tlv(1, b"a") + encode_tlv(2, b"bc")
        assert list(iter_tlvs(buf)) == [(1, b"a"), (2, b"bc")]

    def test_overrun_rejected(self):
        buf = encode_tlv(1, b"abc")[:-1]
        with pytest.raises(TlvError):
            list(iter_tlvs(buf))


class TestNameCodec:
    @pytest.mark.parametrize("uri", ["/", "/a", "/a/b/c", "/prov-0/obj-3/chunk-17"])
    def test_roundtrip(self, uri):
        name = Name(uri)
        encoded = encode_name(name)
        for tlv_type, value in iter_tlvs(encoded):
            assert decode_name(value) == name

    def test_foreign_tlv_inside_name_rejected(self):
        bogus = encode_tlv(0x99, b"x")
        with pytest.raises(TlvError):
            decode_name(bogus)

    @pytest.mark.parametrize("component", [b"", b"a/b"])
    def test_component_no_name_can_hold_is_rejected(self, component):
        body = encode_tlv(TLV_NAME_COMPONENT, b"a") + encode_tlv(
            TLV_NAME_COMPONENT, component
        )
        with pytest.raises(TlvError):
            decode_name(body)


class TestTagCodec:
    def test_roundtrip_preserves_signature_validity(self):
        tag = sample_tag()
        for tlv_type, value in iter_tlvs(encode_tag(tag)):
            decoded = decode_tag(value)
        assert decoded == tag
        assert decoded.verify_signature(_KP.public)
        assert decoded.cache_key() == tag.cache_key()

    def test_public_level_roundtrip(self):
        tag = sample_tag(access_level=None)
        for _, value in iter_tlvs(encode_tag(tag)):
            assert decode_tag(value).access_level is None

    def test_missing_field_rejected(self):
        with pytest.raises(TlvError):
            decode_tag(encode_tlv(0x81, b"/prov/KEY/pub"))

    def test_wire_size_close_to_estimate(self):
        tag = sample_tag()
        wire = len(encode_tag(tag))
        estimate = tag.encoded_size()
        assert abs(wire - estimate) / wire < 0.35  # honest size modelling


class TestInterestCodec:
    def test_full_roundtrip(self):
        interest = Interest(
            name=Name("/prov-0/obj-1/chunk-2"),
            tag=sample_tag(),
            flag_f=0.25,
            observed_access_path=bytes(range(32)),
            lifetime=1.5,
            credentials=b"secret-bytes",
        )
        decoded = decode_interest(encode_interest(interest))
        assert decoded.name == interest.name
        assert decoded.nonce == interest.nonce
        assert decoded.flag_f == interest.flag_f
        assert decoded.observed_access_path == interest.observed_access_path
        assert decoded.lifetime == interest.lifetime
        assert decoded.credentials == interest.credentials
        assert decoded.tag == interest.tag

    def test_bare_interest(self):
        interest = Interest(name=Name("/x"))
        decoded = decode_interest(encode_interest(interest))
        assert decoded.tag is None and decoded.credentials is None

    def test_wire_size_close_to_estimate(self):
        interest = Interest(name=Name("/prov-0/obj-1/chunk-2"), tag=sample_tag())
        wire = len(encode_interest(interest))
        assert abs(wire - interest.size_bytes()) / wire < 0.35

    def test_not_an_interest(self):
        with pytest.raises(TlvError):
            decode_interest(encode_tlv(0x42, b""))


class TestDataCodec:
    def test_full_roundtrip(self):
        data = Data(
            name=Name("/prov-0/obj-1/chunk-2"),
            payload=b"payload-bytes" * 10,
            access_level=3,
            provider_key_locator="/prov-0/KEY/pub",
            signature=b"s" * 64,
            flag_f=0.125,
            tag=sample_tag(),
            nack=AttachedNack(tag_key=b"k" * 32, reason=NackReason.ACCESS_LEVEL),
            wrapped_key=b"w" * 48,
        )
        decoded = decode_data(encode_data(data))
        assert decoded.name == data.name
        assert decoded.payload == data.payload
        assert decoded.access_level == 3
        assert decoded.provider_key_locator == data.provider_key_locator
        assert decoded.flag_f == data.flag_f
        assert decoded.tag == data.tag
        assert decoded.nack == data.nack
        assert decoded.wrapped_key == data.wrapped_key

    def test_tag_response_roundtrip(self):
        data = Data(name=Name("/prov-0/register/c/1"), tag_response=sample_tag())
        decoded = decode_data(encode_data(data))
        assert decoded.tag_response == data.tag_response
        assert decoded.is_tag_response()

    def test_public_data_roundtrip(self):
        data = Data(name=Name("/x"), payload=b"p", access_level=None)
        assert decode_data(encode_data(data)).access_level is None


class TestNackCodec:
    @pytest.mark.parametrize("reason", list(NackReason))
    def test_all_reasons_roundtrip(self, reason):
        nack = Nack(name=Name("/a/b"), reason=reason, nonce=77)
        decoded = decode_nack(encode_nack(nack))
        assert decoded.reason is reason
        assert decoded.nonce == 77


class TestGenericCodec:
    def test_dispatch(self):
        packets = [
            Interest(name=Name("/i")),
            Data(name=Name("/d"), payload=b"p"),
            Nack(name=Name("/n"), reason=NackReason.NO_TAG),
        ]
        for packet in packets:
            decoded = decode_packet(encode_packet(packet))
            assert type(decoded) is type(packet)
            assert decoded.name == packet.name

    def test_unknown_object_rejected(self):
        with pytest.raises(TlvError):
            encode_packet(object())
        with pytest.raises(TlvError):
            decode_packet(encode_tlv(0x50, b""))


name_strategy = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd"), max_codepoint=127),
        min_size=1,
        max_size=10,
    ),
    max_size=5,
).map(Name)


class TestPropertyRoundtrips:
    @given(name_strategy)
    def test_name_roundtrip(self, name):
        for _, value in iter_tlvs(encode_name(name)):
            assert decode_name(value) == name

    @given(
        name_strategy,
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.binary(min_size=32, max_size=32),
    )
    def test_interest_roundtrip(self, name, flag, path):
        interest = Interest(name=name, flag_f=flag, observed_access_path=path)
        decoded = decode_interest(encode_interest(interest))
        assert decoded.name == name
        assert decoded.flag_f == flag
        assert decoded.observed_access_path == path

    @given(name_strategy, st.binary(max_size=256))
    def test_data_roundtrip(self, name, payload):
        data = Data(name=name, payload=payload)
        decoded = decode_data(encode_data(data))
        assert decoded.name == name and decoded.payload == payload
