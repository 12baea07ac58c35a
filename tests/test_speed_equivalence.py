"""Golden-equivalence property tests for the sim-core speed overhaul.

The hot-path rewrite (precomputed TLV sizes, packed PIT/CS entries,
memoized FIB lookups, the restructured ``_drain`` dispatch loop, and
the optional ``SIM_KERNEL=c`` compiled loop) is only admissible if it
is *behavior-preserving*.  These tests pin that down property-style:
each optimized structure is driven with randomized workloads next to a
straightforward reference implementation of the seed semantics, and
every observable — sizes, occupancy traces, hit/miss sequences,
dispatch order — must match exactly.
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.core.tag import Tag
from repro.ndn.cs import ContentStore
from repro.ndn.fib import Fib
from repro.ndn.name import Name
from repro.ndn.packets import (
    ACCESS_PATH_SIZE,
    DATA_BASE_SIZE,
    INTEREST_BASE_SIZE,
    NACK_BASE_SIZE,
    SIGNATURE_SIZE,
    Data,
    Interest,
    Nack,
    NackReason,
)
from repro.ndn.pit import Pit, PitRecord
from repro.sim.engine import Simulator

# ----------------------------------------------------------------------
# TLV wire sizes: precomputed caches vs the seed formulas
# ----------------------------------------------------------------------

_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789-"


def _random_name(rng: random.Random, max_depth: int = 6) -> Name:
    depth = rng.randrange(0, max_depth + 1)
    components = [
        "".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(1, 12)))
        for _ in range(depth)
    ]
    return Name("/" + "/".join(components)) if components else Name("/")


def _reference_name_size(name: Name) -> int:
    # The seed's per-call formula: 2 TLV bytes per component plus the
    # component payloads.
    return 2 * len(name.components) + sum(len(c) for c in name.components)


def _random_tag(rng: random.Random, signed: bool = True) -> Tag:
    tag = Tag(
        provider_key_locator=f"/prov-{rng.randrange(8)}/KEY/pub",
        client_key_locator=f"/client-{rng.randrange(32)}/KEY/pub",
        access_level=rng.choice([None, 0, 1, 2, 3]),
        access_path=bytes(rng.randrange(256) for _ in range(32)),
        expiry=rng.random() * 100.0,
        signature=bytes(rng.randrange(256) for _ in range(64)) if signed else b"",
    )
    return tag


def _reference_tag_size(tag: Tag) -> int:
    fixed = 8 + 4 + 32  # expiry + access level + access path
    return (
        len(tag.provider_key_locator)
        + len(tag.client_key_locator)
        + fixed
        + len(tag.signature)
    )


def test_name_size_cache_matches_seed_formula():
    rng = random.Random(101)
    for _ in range(300):
        name = _random_name(rng)
        assert name.encoded_size() == _reference_name_size(name)
        # Derived names carry their own (fresh) precomputed size.
        if len(name):
            prefix = name.prefix(rng.randrange(1, len(name) + 1))
            assert prefix.encoded_size() == _reference_name_size(prefix)


def test_tag_size_cache_matches_seed_formula():
    rng = random.Random(102)
    for _ in range(200):
        tag = _random_tag(rng, signed=rng.random() < 0.8)
        expected = _reference_tag_size(tag)
        assert tag.encoded_size() == expected
        assert tag.encoded_size() == expected  # cached second read


def test_packet_sizes_match_seed_formulas():
    rng = random.Random(103)
    for _ in range(200):
        name = _random_name(rng)
        tag = _random_tag(rng) if rng.random() < 0.5 else None
        credentials = (
            bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
            if rng.random() < 0.3
            else None
        )
        signature = (
            bytes(rng.randrange(256) for _ in range(64))
            if rng.random() < 0.3
            else b""
        )
        interest = Interest(
            name=name, tag=tag, credentials=credentials,
            client_signature=signature,
        )
        expected = _reference_name_size(name) + INTEREST_BASE_SIZE + ACCESS_PATH_SIZE
        if tag is not None:
            expected += _reference_tag_size(tag)
        if credentials is not None:
            expected += len(credentials)
        expected += len(signature)
        assert interest.size_bytes() == expected

        payload = (
            bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
            if rng.random() < 0.5
            else b""
        )
        payload_size = rng.randrange(0, 1500)
        data = Data(
            name=name, payload=payload, payload_size=payload_size,
            tag=tag if rng.random() < 0.5 else None,
        )
        expected = (
            _reference_name_size(name)
            + DATA_BASE_SIZE
            + (len(payload) if payload else payload_size)
            + SIGNATURE_SIZE
        )
        if data.tag is not None:
            expected += _reference_tag_size(data.tag)
        assert data.size_bytes() == expected

        nack = Nack(name=name, reason=NackReason.NO_ROUTE)
        assert nack.size_bytes() == NACK_BASE_SIZE + _reference_name_size(name)

        # Copies used per-hop must preserve sizes exactly.
        assert interest.copy().size_bytes() == interest.size_bytes()
        assert data.copy().size_bytes() == data.size_bytes()


# ----------------------------------------------------------------------
# PIT: packed entries vs a plain-dict reference model
# ----------------------------------------------------------------------


class _ReferencePit:
    """The seed PIT semantics on plain dicts and tuples — no packing,
    no slots, no type guards.  Counters and return values must agree
    with :class:`repro.ndn.pit.Pit` on every operation."""

    def __init__(self, entry_lifetime: float, capacity: int) -> None:
        self.entry_lifetime = entry_lifetime
        self.capacity = capacity
        self.entries = {}  # name string -> dict(records, created, expires)
        self.expired_records = 0
        self.rejections = 0

    def find(self, name: str, now):
        entry = self.entries.get(name)
        if entry is None:
            return None
        if now is not None and now > entry["expires"]:
            self.expired_records += len(entry["records"])
            del self.entries[name]
            return None
        return entry

    def insert(self, name: str, record, now: float) -> bool:
        entry = self.find(name, now)
        if entry is None:
            if self.capacity and len(self.entries) >= self.capacity:
                self.purge_expired(now)
                if len(self.entries) >= self.capacity:
                    self.rejections += 1
                    return False
            self.entries[name] = {
                "records": [record],
                "created": now,
                "expires": now + self.entry_lifetime,
            }
            return True
        entry["records"].append(record)
        return False

    def consume(self, name: str, now):
        entry = self.find(name, now)
        if entry is not None:
            del self.entries[name]
        return entry

    def purge_expired(self, now: float) -> int:
        dead = [n for n, e in self.entries.items() if now > e["expires"]]
        dropped = 0
        for name in dead:
            dropped += len(self.entries[name]["records"])
            del self.entries[name]
        self.expired_records += dropped
        return dropped


def test_pit_occupancy_trace_matches_reference():
    rng = random.Random(201)
    pit = Pit(entry_lifetime=1.5, capacity=12)
    ref = _ReferencePit(entry_lifetime=1.5, capacity=12)
    names = [f"/prov-{i}/obj-{j}/chunk-{k}"
             for i in range(2) for j in range(4) for k in range(3)]
    now = 0.0
    for step in range(600):
        now += rng.random() * (0.8 if rng.random() < 0.9 else 3.0)
        name = rng.choice(names)
        op = rng.random()
        if op < 0.55:
            record = PitRecord(
                tag=None, flag_f=0.0, in_face=f"face-{step}",
                arrived_at=now, requester_id=f"client-{step % 5}",
            )
            created = pit.insert(name, record, now)
            ref_created = ref.insert(name, record, now)
            assert created == ref_created, f"step {step}: insert diverged"
        elif op < 0.8:
            entry = pit.consume(name, now)
            ref_entry = ref.consume(name, now)
            assert (entry is None) == (ref_entry is None)
            if entry is not None:
                assert len(entry.records) == len(ref_entry["records"])
                assert entry.created_at == ref_entry["created"]
                assert entry.expires_at == ref_entry["expires"]
        elif op < 0.95:
            entry = pit.find(name, now)
            ref_entry = ref.find(name, now)
            assert (entry is None) == (ref_entry is None)
            if entry is not None:
                assert [r.in_face for r in entry.records] == [
                    r.in_face for r in ref_entry["records"]
                ]
        else:
            assert pit.purge_expired(now) == ref.purge_expired(now)
        # Occupancy trace: same size, same keys, same counters.
        assert len(pit) == len(ref.entries), f"step {step}: occupancy diverged"
        assert {str(n) for n in pit._entries} == set(ref.entries)
        assert pit.expired_records == ref.expired_records
        assert pit.rejections == ref.rejections


# ----------------------------------------------------------------------
# CS: packed entries vs an order-list reference model, per policy
# ----------------------------------------------------------------------


class _ReferenceCs:
    """Seed content-store semantics on a plain dict + explicit order
    list (insertion/recency order, front = next victim)."""

    def __init__(self, capacity: int, policy: str) -> None:
        self.capacity = capacity
        self.policy = policy
        self.store = {}  # name string -> payload marker
        self.order = []  # front = oldest
        self.frequency = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def insert(self, name: str, marker) -> None:
        if self.capacity <= 0:
            return
        if name in self.store:
            if self.policy == "lru":
                self.order.remove(name)
                self.order.append(name)
            self.store[name] = marker
            return
        self.store[name] = marker
        self.order.append(name)
        self.frequency.setdefault(name, 0)
        if len(self.store) > self.capacity:
            if self.policy == "lfu":
                victim = min(self.store, key=lambda n: (self.frequency.get(n, 0),))
            else:
                victim = self.order[0]
            self.order.remove(victim)
            del self.store[victim]
            self.frequency.pop(victim, None)
            self.evictions += 1

    def lookup(self, name: str):
        marker = self.store.get(name)
        if marker is None:
            self.misses += 1
            return None
        if self.policy == "lru":
            self.order.remove(name)
            self.order.append(name)
        elif self.policy == "lfu":
            self.frequency[name] = self.frequency.get(name, 0) + 1
        self.hits += 1
        return marker


@pytest.mark.parametrize("policy", ["lru", "fifo", "lfu"])
def test_cs_occupancy_trace_matches_reference(policy):
    rng = random.Random(301)
    cs = ContentStore(capacity=8, policy=policy)
    ref = _ReferenceCs(capacity=8, policy=policy)
    names = [f"/prov-0/obj-{i}/chunk-0" for i in range(20)]
    for step in range(500):
        name = rng.choice(names)
        if rng.random() < 0.5:
            cs.insert(Data(name=Name(name), payload=b"x" * (step % 7)))
            ref.insert(name, step)
        else:
            got = cs.lookup(name)
            ref_got = ref.lookup(name)
            assert (got is None) == (ref_got is None), f"step {step}"
        assert len(cs) == len(ref.store), f"step {step}: occupancy diverged"
        assert {str(n) for n in cs._store} == set(ref.store)
        assert (cs.hits, cs.misses, cs.evictions) == (
            ref.hits, ref.misses, ref.evictions,
        ), f"step {step}: counters diverged"


# ----------------------------------------------------------------------
# FIB: memoized longest-prefix match vs a fresh walk every time
# ----------------------------------------------------------------------


def _reference_lpm(entries, components):
    for length in range(len(components), -1, -1):
        hops = entries.get(components[:length])
        if hops is not None:
            return hops
    return []


def test_fib_memo_matches_unmemoized_walk():
    rng = random.Random(401)
    fib = Fib()
    shadow = {}  # component tuple -> list of (face, cost), seed order
    prefixes = ["/", "/prov-0", "/prov-0/premium", "/prov-1", "/prov-1/a/b"]
    faces = [f"face-{i}" for i in range(4)]
    for step in range(400):
        op = rng.random()
        if op < 0.25:
            prefix, face = rng.choice(prefixes), rng.choice(faces)
            cost = rng.randrange(10)
            fib.add(prefix, face=face, cost=cost)
            key = Name(prefix).components
            hops = [h for h in shadow.get(key, []) if h[0] is not face]
            hops.append((face, cost))
            hops.sort(key=lambda h: h[1])
            shadow[key] = hops
        elif op < 0.3:
            prefix = rng.choice(prefixes)
            fib.remove(prefix)
            shadow.pop(Name(prefix).components, None)
        else:
            name = rng.choice(prefixes) + rng.choice(
                ["", "/obj", "/obj/chunk", "/x/y/z"]
            )
            got = [(h.face, h.cost) for h in fib.lookup_nexthops(name)]
            expected = _reference_lpm(shadow, Name(name).components)
            assert got == [(f, c) for f, c in expected], f"step {step}: {name}"


# ----------------------------------------------------------------------
# Dispatch: restructured _drain (and the C kernel) vs the seed loop
# ----------------------------------------------------------------------


def _drain_seed_loop(sim: Simulator, until=None) -> None:
    """The seed repo's dispatch loop, verbatim (the reference the
    benchmark's replica also uses)."""
    heap = sim._heap
    while heap and not sim._stopped:
        event = heap[0][3]
        if event.cancelled:
            heapq.heappop(heap)
            continue
        if until is not None and event.time > until:
            break
        heapq.heappop(heap)
        sim._live -= 1
        event.on_cancel = None
        sim._now = event.time
        sim.events_executed += 1
        event.callback(*event.args)


def _build_workload(sim: Simulator, n: int = 200, seed: int = 7):
    """A self-randomizing event workload: callbacks reschedule, cancel,
    and collide on timestamps, driven by a per-simulator RNG.  If two
    loops dispatch in the same order they draw identically and produce
    identical traces; any order divergence amplifies immediately."""
    trace = []
    rng = random.Random(seed)
    pending = []

    def fire(tag):
        trace.append((round(sim._now, 9), tag))
        roll = rng.random()
        if roll < 0.5 and tag < n * 4:
            delay = round(rng.random() * 0.02, 6)
            pending.append(sim.schedule(delay, fire, tag + n))
        elif roll < 0.65 and pending:
            pending.pop(rng.randrange(len(pending))).cancel()

    for i in range(n):
        sim.schedule_at(
            round(rng.random(), 6), fire, i, priority=rng.randrange(3)
        )
    for i in range(25):  # same-timestamp burst with priority ties
        sim.schedule_at(0.5, fire, 10_000 + i, priority=i % 2)
    return trace


def _dispatch_digest(runner, until=None, n=200, seed=7):
    sim = Simulator(seed=3)
    trace = _build_workload(sim, n=n, seed=seed)
    runner(sim, until)
    return trace, sim.events_executed, sim._now, sim._live


def test_drain_matches_seed_loop():
    for until in (None, 0.6):
        got = _dispatch_digest(lambda sim, u: sim._drain(u), until)
        expected = _dispatch_digest(_drain_seed_loop, until)
        assert got == expected


def test_run_matches_seed_loop_full():
    got = _dispatch_digest(lambda sim, u: sim.run(), None)
    expected = _dispatch_digest(_drain_seed_loop, None)
    assert got == expected


def test_observed_loop_matches_seed_loop():
    from repro.obs.layers import LayerTracer

    def observed(sim, until):
        with LayerTracer():
            sim.run(until)

    got = _dispatch_digest(observed, None)
    expected = _dispatch_digest(_drain_seed_loop, None)
    assert got == expected


def _load_ckernel():
    try:
        from repro.sim._ckernel import load_kernel

        return load_kernel()
    except Exception as exc:  # no compiler / headers on this host
        pytest.skip(f"compiled kernel unavailable: {exc}")


def test_c_kernel_matches_seed_loop():
    kernel = _load_ckernel()
    for until in (None, 0.6):
        got = _dispatch_digest(lambda sim, u: kernel(sim, u), until)
        expected = _dispatch_digest(_drain_seed_loop, until)
        assert got == expected


def test_c_kernel_matches_python_drain_on_larger_workload():
    kernel = _load_ckernel()
    got = _dispatch_digest(lambda sim, u: kernel(sim, u), None, n=800, seed=11)
    expected = _dispatch_digest(lambda sim, u: sim._drain(u), None, n=800, seed=11)
    assert got == expected
