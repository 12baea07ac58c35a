"""Behavioural tests for the provider: registration, publishing, keys."""

import pytest

from repro.core.access_path import ZERO_PATH, expected_access_path
from repro.crypto.keywrap import unwrap_key
from repro.crypto.sim_signature import SimulatedKeyPair
from repro.ndn.name import Name
from repro.ndn.node import Node
from repro.ndn.packets import Interest

from tests.conftest import build_mini_net


class Probe(Node):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, cs_capacity=0)
        self.datas = []

    def on_data(self, data, in_face):
        self.datas.append(data)


@pytest.fixture
def net():
    return build_mini_net()


@pytest.fixture
def probe(net):
    probe = Probe(net.sim, "probe")
    net.network.add_node(probe, routable=False)
    net.network.connect(probe, net.ap, bandwidth_bps=10e6, latency=0.002)
    return probe


class TestCatalog:
    def test_publish_counts(self, net):
        assert len(net.provider.catalog) == net.config.objects_per_provider
        obj = net.provider.catalog[0]
        assert obj.num_chunks == net.config.chunks_per_object
        assert obj.prefix == Name("/prov-0/obj-0")

    def test_levels_cycle(self, net):
        levels = [obj.access_level for obj in net.provider.catalog[:6]]
        assert levels == [1, 2, 3, 1, 2, 3]

    def test_content_object_accepts_exactly_the_chunk_names(self, net):
        provider = net.provider
        published = {
            name: obj for obj in provider.catalog for name in obj.chunk_names()
        }
        for name, obj in published.items():
            assert provider.content_object(name) is obj
        last = provider.catalog[-1]
        rejected = [
            "/",
            "/prov-0",
            last.prefix,
            last.prefix / f"chunk-{last.num_chunks}",
            last.prefix / "chunk-01",
            last.prefix / "chunk--1",
            last.prefix / "manifest",
            last.chunk_name(0) / "extra",
            Name("/prov-0") / f"obj-{len(provider.catalog)}" / "chunk-0",
            Name("/prov-1/obj-0/chunk-0"),
        ]
        for name in rejected:
            assert Name(name) not in published
            assert provider.content_object(name) is None, name

    def test_chunk_payload_deterministic(self, net):
        obj = net.provider.catalog[0]
        name = obj.chunk_name(0)
        assert net.provider._chunk_payload(obj, name) == net.provider._chunk_payload(
            obj, name
        )
        assert len(net.provider._chunk_payload(obj, name)) == net.config.chunk_size_bytes

    def test_encrypted_payloads_decrypt_with_master_key(self):
        net = build_mini_net()
        net.config.encrypt_payloads = True
        from repro.crypto.chacha20 import chacha20_decrypt

        obj = net.provider.catalog[0]
        name = obj.chunk_name(3)
        ciphertext = net.provider._chunk_payload(obj, name)
        key = net.provider.content_key_for(obj)
        plaintext = chacha20_decrypt(key, obj.key_nonce, ciphertext)
        import hashlib

        expected = hashlib.sha256(name.to_uri().encode()).digest() * (
            obj.chunk_size // 32
        )
        assert plaintext == expected[: obj.chunk_size]


class TestRegistration:
    def register(self, net, probe, user="probe", credentials=None, level=2):
        secret = net.provider.directory.enroll(user, level)
        creds = secret if credentials is None else credentials
        net.sim.schedule(
            0.0,
            probe.faces[0].send,
            Interest(name=Name(f"/prov-0/register/{user}/1"), credentials=creds),
        )
        net.run()
        return secret

    def test_valid_credentials_get_signed_tag(self, net, probe):
        self.register(net, probe)
        assert len(probe.datas) == 1
        tag = probe.datas[0].tag_response
        assert tag.verify_signature(net.provider.keypair.public)
        assert tag.access_level == 2
        assert tag.expiry == pytest.approx(net.config.tag_expiry, abs=1.0)
        assert net.provider.stats.tags_issued == 1

    def test_tag_binds_observed_access_path(self, net, probe):
        self.register(net, probe)
        tag = probe.datas[0].tag_response
        # The AP folded its identity in transit; the provider copied it.
        assert tag.access_path == expected_access_path(["ap-0"])

    def test_bad_credentials_refused(self, net, probe):
        self.register(net, probe, credentials=b"wrong")
        assert probe.datas == []
        assert net.provider.stats.registrations_refused == 1

    def test_unknown_user_refused(self, net, probe):
        net.sim.schedule(
            0.0,
            probe.faces[0].send,
            Interest(name=Name("/prov-0/register/ghost/1"), credentials=b"x"),
        )
        net.run()
        assert probe.datas == []
        assert net.provider.stats.registrations_refused == 1

    def test_revoked_user_refused(self, net, probe):
        secret = net.provider.directory.enroll("probe", 2)
        net.provider.directory.revoke("probe")
        net.sim.schedule(
            0.0,
            probe.faces[0].send,
            Interest(name=Name("/prov-0/register/probe/1"), credentials=secret),
        )
        net.run()
        assert probe.datas == []

    def test_malformed_registration_name_refused(self, net, probe):
        net.sim.schedule(
            0.0, probe.faces[0].send, Interest(name=Name("/prov-0/register"))
        )
        net.run()
        assert probe.datas == []

    def test_wrapped_key_unwraps_for_enrolled_client(self, net, probe):
        keypair = SimulatedKeyPair.generate(net.sim.rng.stream("client-key"))
        secret = net.provider.directory.enroll("probe", 2, public_key=keypair.public)
        net.sim.schedule(
            0.0,
            probe.faces[0].send,
            Interest(name=Name("/prov-0/register/probe/1"), credentials=secret),
        )
        net.run()
        blob = probe.datas[0].wrapped_key
        assert blob is not None
        assert unwrap_key(keypair, blob) == net.provider.master_key

    def test_no_public_key_no_wrapped_key(self, net, probe):
        self.register(net, probe)
        assert probe.datas[0].wrapped_key is None


class TestOriginServing:
    def test_unknown_content_dropped(self, net, probe):
        before = net.provider.unroutable_drops
        net.sim.schedule(
            0.0, probe.faces[0].send, Interest(name=Name("/prov-0/obj-999/chunk-0"))
        )
        net.run()
        assert net.provider.unroutable_drops == before + 1

    def test_origin_validates_like_content_router(self, net, probe):
        net.provider.directory.enroll("probe", 3)
        tag = net.provider.issue_tag_direct("probe", expected_access_path(["ap-0"]))
        net.sim.schedule(
            0.0,
            probe.faces[0].send,
            Interest(name=Name("/prov-0/obj-0/chunk-0"), tag=tag),
        )
        net.run()
        assert len(probe.datas) == 1
        assert probe.datas[0].access_level == 1
        assert probe.datas[0].provider_key_locator == net.provider.key_locator
        assert net.provider.stats.chunks_served == 1

    def test_issue_tag_direct_requires_enrollment(self, net):
        assert net.provider.issue_tag_direct("nobody", ZERO_PATH) is None
