"""Unit tests for FIB, PIT, and Content Store."""

from repro.ndn.cs import ContentStore
from repro.ndn.fib import Fib
from repro.ndn.name import Name
from repro.ndn.packets import AttachedNack, Data, NackReason
from repro.ndn.pit import Pit, PitRecord


def record(tag=None, flag=0.0, face="f", t=0.0, nonce=0):
    return PitRecord(tag=tag, flag_f=flag, in_face=face, arrived_at=t, nonce=nonce)


class TestFib:
    def test_longest_prefix_match(self):
        fib = Fib()
        fib.add("/a", "coarse")
        fib.add("/a/b", "fine")
        assert fib.lookup("/a/b/c") == "fine"
        assert fib.lookup("/a/x") == "coarse"
        assert fib.lookup("/other") is None

    def test_root_default_route(self):
        fib = Fib()
        fib.add("/", "default")
        assert fib.lookup("/anything/at/all") == "default"

    def test_add_if_cheaper(self):
        fib = Fib()
        assert fib.add_if_cheaper("/a", "far", cost=10.0)
        assert not fib.add_if_cheaper("/a", "farther", cost=20.0)
        assert fib.add_if_cheaper("/a", "near", cost=1.0)
        assert fib.lookup("/a") == "near"

    def test_remove(self):
        fib = Fib()
        fib.add("/a", "f")
        fib.remove("/a")
        assert fib.lookup("/a") is None

    def test_exact_entry_preferred(self):
        fib = Fib()
        fib.add("/a/b/c", "exact")
        fib.add("/a", "coarse")
        assert fib.lookup("/a/b/c") == "exact"

    def test_prefixes_listing(self):
        fib = Fib()
        fib.add("/a", 1)
        fib.add("/b/c", 2)
        assert sorted(p.to_uri() for p in fib.prefixes()) == ["/a", "/b/c"]


class TestPit:
    def test_first_insert_creates_entry(self):
        pit = Pit()
        assert pit.insert("/a/1", record(face="f1"), now=0.0) is True
        assert pit.insert("/a/1", record(face="f2"), now=0.1) is False
        entry = pit.find("/a/1")
        assert [r.in_face for r in entry.records] == ["f1", "f2"]

    def test_consume_removes_entry(self):
        pit = Pit()
        pit.insert("/a/1", record(), now=0.0)
        entry = pit.consume("/a/1")
        assert entry is not None
        assert pit.consume("/a/1") is None

    def test_expiry(self):
        pit = Pit(entry_lifetime=1.0)
        pit.insert("/a/1", record(), now=0.0)
        assert pit.find("/a/1", now=0.5) is not None
        assert pit.find("/a/1", now=2.0) is None
        assert pit.expired_records == 1
        # A new insert after expiry is a fresh entry again.
        assert pit.insert("/a/1", record(), now=2.0) is True

    def test_drop_record(self):
        pit = Pit()
        pit.insert("/a/1", record(face="f1", nonce=1), now=0.0)
        pit.insert("/a/1", record(face="f2", nonce=2), now=0.0)
        removed = pit.drop_record("/a/1", lambda r: r.nonce == 1)
        assert removed == 1
        assert [r.nonce for r in pit.find("/a/1").records] == [2]

    def test_drop_last_record_removes_entry(self):
        pit = Pit()
        pit.insert("/a/1", record(nonce=1), now=0.0)
        pit.drop_record("/a/1", lambda r: True)
        assert "/a/1" not in pit

    def test_purge_expired(self):
        pit = Pit(entry_lifetime=1.0)
        pit.insert("/a/1", record(), now=0.0)
        pit.insert("/a/2", record(), now=5.0)
        assert pit.purge_expired(now=3.0) == 1
        assert "/a/2" in pit


class TestContentStore:
    def make_data(self, name, **kwargs):
        return Data(name=Name(name), payload=b"x" * 16, **kwargs)

    def test_insert_lookup(self):
        cs = ContentStore(capacity=10)
        cs.insert(self.make_data("/a/1"))
        hit = cs.lookup("/a/1")
        assert hit is not None and hit.name == Name("/a/1")
        assert cs.hits == 1

    def test_miss_counted(self):
        cs = ContentStore(capacity=10)
        assert cs.lookup("/nope") is None
        assert cs.misses == 1

    def test_lru_eviction(self):
        cs = ContentStore(capacity=2)
        cs.insert(self.make_data("/a/1"))
        cs.insert(self.make_data("/a/2"))
        cs.lookup("/a/1")  # refresh /a/1
        cs.insert(self.make_data("/a/3"))  # evicts /a/2
        assert cs.lookup("/a/2") is None
        assert cs.lookup("/a/1") is not None
        assert cs.evictions == 1

    def test_capacity_zero_disables(self):
        cs = ContentStore(capacity=0)
        cs.insert(self.make_data("/a/1"))
        assert cs.lookup("/a/1") is None
        assert len(cs) == 0

    def test_lookup_returns_copy(self):
        cs = ContentStore(capacity=10)
        cs.insert(self.make_data("/a/1"))
        first = cs.lookup("/a/1")
        first.flag_f = 0.77
        second = cs.lookup("/a/1")
        assert second.flag_f == 0.0

    def test_per_request_state_stripped(self):
        cs = ContentStore(capacity=10)
        dirty = self.make_data("/a/1")
        dirty.flag_f = 0.5
        dirty.tag = object()
        dirty.nack = AttachedNack(tag_key=b"k", reason=NackReason.INVALID_SIGNATURE)
        cs.insert(dirty)
        clean = cs.lookup("/a/1")
        assert clean.flag_f == 0.0 and clean.tag is None and clean.nack is None

    def test_insert_takes_ownership(self):
        # The store keeps the inserted packet itself, stripped in place;
        # readers still get their own copy.
        cs = ContentStore(capacity=10)
        data = self.make_data("/a/1", flag_f=0.5, tag=object())
        cs.insert(data)
        assert data.tag is None and data.flag_f == 0.0
        hit = cs.lookup("/a/1")
        assert hit is not data and hit.payload == data.payload

    def test_frequencies_kept_only_for_lfu(self):
        for policy in ("lru", "fifo"):
            cs = ContentStore(capacity=2, policy=policy)
            for i in range(4):
                cs.insert(self.make_data(f"/a/{i}"))
                cs.lookup(f"/a/{i}")
            assert cs._frequency == {}
        cs = ContentStore(capacity=2, policy="lfu")
        cs.insert(self.make_data("/a/1"))
        cs.lookup("/a/1")
        cs.insert(self.make_data("/a/2"))
        # Keyed by the name's URI string, like the store itself.
        assert cs._frequency == {"/a/1": 1, "/a/2": 0}
        cs.insert(self.make_data("/a/3"))  # evicts the colder /a/2
        assert cs._frequency == {"/a/1": 1, "/a/3": 0}

    def test_reinsert_moves_to_front(self):
        cs = ContentStore(capacity=2)
        cs.insert(self.make_data("/a/1"))
        cs.insert(self.make_data("/a/2"))
        cs.insert(self.make_data("/a/1"))  # refresh
        cs.insert(self.make_data("/a/3"))  # evicts /a/2
        assert cs.lookup("/a/1") is not None
        assert cs.lookup("/a/2") is None
