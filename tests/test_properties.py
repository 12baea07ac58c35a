"""Property-based tests (hypothesis) on core data structures and invariants."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.access_level import satisfies
from repro.core.tag import Tag, make_tag
from repro.crypto.chacha20 import chacha20_decrypt, chacha20_encrypt
from repro.crypto.hashing import rolling_xor_hash, xor_fold
from repro.filters.bloom import BloomFilter
from repro.filters.params import estimate_fpp, size_for_capacity
from repro.ndn.name import Name
from repro.sim.engine import Simulator
from repro.workload.zipf import ZipfSampler

# Keys shared across examples (generation is the expensive part).
_SIGNER = None


def signer():
    global _SIGNER
    if _SIGNER is None:
        from repro.crypto.sim_signature import SimulatedKeyPair

        _SIGNER = SimulatedKeyPair.generate(random.Random(424242))
    return _SIGNER


name_components = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd"), max_codepoint=127),
        min_size=1,
        max_size=8,
    ),
    max_size=6,
)


# Components as a caller might pass them: any text (empty and "/"
# included) and numbers, which the constructor converts.
any_parts = st.lists(
    st.one_of(
        st.text(max_size=4),
        st.text(alphabet="ab/", max_size=3),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=5,
)


class TestNameProperties:
    @given(name_components)
    def test_uri_roundtrip(self, components):
        name = Name(components)
        assert Name(name.to_uri()) == name

    @given(name_components, name_components)
    def test_concatenation_prefix(self, a, b):
        combined = Name(list(a) + list(b))
        assert Name(a).is_prefix_of(combined)

    @given(name_components)
    def test_prefix_of_self(self, components):
        name = Name(components)
        assert name.is_prefix_of(name)

    @given(name_components)
    def test_hash_consistent_with_equality(self, components):
        assert hash(Name(components)) == hash(Name(list(components)))

    @given(any_parts, any_parts)
    def test_every_constructible_name_round_trips_through_its_uri(self, parts, more):
        # The per-hop tables key by the URI, so it must be one-to-one
        # with the name however the name was built.
        try:
            name = Name(parts)
        except ValueError:
            return
        try:
            name = name.append(*more)
        except ValueError:
            pass
        assert Name(name.to_uri()) == name
        assert Name(name.to_uri()).to_uri() == name.to_uri()


# Child components for Name.append: plain text (empty allowed), numbers,
# which the generic constructor converts, and text holding "/", which
# it rejects.
append_parts = st.lists(
    st.one_of(
        st.text(alphabet="abc-0", max_size=4),
        st.integers(min_value=0, max_value=99),
        st.text(alphabet="ab/", max_size=4),
    ),
    max_size=4,
)


class TestNameAppend:
    @given(name_components, append_parts)
    def test_append_matches_the_generic_constructor(self, parent, parts):
        parent = Name(parent)
        parts = tuple(parts)
        try:
            expected = Name(parent.components + parts)
        except ValueError:
            with pytest.raises(ValueError):
                parent.append(*parts)
            return
        child = parent.append(*parts)
        assert child.components == expected.components
        assert child.to_uri() == expected.to_uri()
        assert child.encoded_size() == expected.encoded_size()
        assert hash(child) == hash(expected)
        assert child == expected

    def test_edge_cases(self):
        root = Name()
        assert root.append("a").to_uri() == "/a"
        # An empty component would render as no component at all, so
        # two different names would share one URI (and one table key).
        with pytest.raises(ValueError):
            root.append("")
        with pytest.raises(ValueError):
            Name(("",))
        with pytest.raises(ValueError):
            Name("/a").append("", "b")
        assert Name("/a").append(7) == Name("/a/7")
        assert Name("/a").append() == Name("/a")
        with pytest.raises(ValueError):
            Name("/a").append("b/c")
        with pytest.raises(ValueError):
            root.append("ok", "/")


class TestBloomProperties:
    @given(st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=300))
    def test_no_false_negatives_ever(self, items):
        bloom = BloomFilter(capacity=300)
        for item in items:
            bloom.insert(item)
        assert all(bloom.contains(item) for item in items)

    @given(
        st.integers(min_value=1, max_value=5000),
        st.floats(min_value=1e-6, max_value=0.5),
        st.integers(min_value=1, max_value=10),
    )
    def test_sizing_meets_target(self, capacity, fpp, k):
        m = size_for_capacity(capacity, fpp, k)
        assert estimate_fpp(m, k, capacity) <= fpp * 1.001

    @given(st.integers(min_value=1, max_value=1000))
    def test_fpp_estimate_in_unit_interval(self, n):
        assert 0.0 <= estimate_fpp(1000, 5, n) <= 1.0


class TestXorPathProperties:
    @given(st.lists(st.text(min_size=1, max_size=10), max_size=8))
    def test_permutation_invariant(self, ids):
        shuffled = list(ids)
        random.Random(0).shuffle(shuffled)
        assert rolling_xor_hash(ids) == rolling_xor_hash(shuffled)

    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
    def test_xor_fold_involution(self, a, b):
        assert xor_fold(xor_fold(a, b), b) == a


class TestChaChaProperties:
    @given(st.binary(max_size=512), st.integers(min_value=0, max_value=2**31))
    def test_roundtrip(self, plaintext, counter):
        key, nonce = b"K" * 32, b"N" * 12
        ciphertext = chacha20_encrypt(key, nonce, plaintext, counter)
        assert chacha20_decrypt(key, nonce, ciphertext, counter) == plaintext

    @given(st.binary(min_size=1, max_size=256))
    def test_ciphertext_differs_from_plaintext(self, plaintext):
        ciphertext = chacha20_encrypt(b"K" * 32, b"N" * 12, plaintext)
        assert len(ciphertext) == len(plaintext)
        # For non-degenerate inputs the keystream flips something.
        if len(plaintext) >= 8:
            assert ciphertext != plaintext


class TestTagProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(
        st.integers(min_value=0, max_value=10) | st.none(),
        st.binary(min_size=32, max_size=32),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    def test_sign_verify_roundtrip(self, level, path, expiry):
        tag = make_tag(
            "/prov-x/KEY/pub", "/client-y/KEY/pub", level, path, expiry, signer()
        )
        assert tag.verify_signature(signer().public)

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
    def test_distinct_paths_distinct_cache_keys(self, path_a, path_b):
        a = make_tag("/p/KEY/pub", "/c/KEY/pub", 1, path_a, 10.0, signer())
        b = make_tag("/p/KEY/pub", "/c/KEY/pub", 1, path_b, 10.0, signer())
        assert (a.cache_key() == b.cache_key()) == (path_a == path_b)


class TestAccessLevelProperties:
    @given(
        st.integers(min_value=0, max_value=100) | st.none(),
        st.integers(min_value=0, max_value=100) | st.none(),
        st.integers(min_value=0, max_value=100) | st.none(),
    )
    def test_hierarchy_transitivity(self, a, b, c):
        # If tag A dominates content B's level requirement and a tag at
        # B's level dominates C, then A dominates C (when defined).
        if a is not None and b is not None and c is not None:
            if satisfies(a, b) and satisfies(b, c):
                assert satisfies(a, c)

    @given(st.integers(min_value=0, max_value=100) | st.none())
    def test_public_always_accessible(self, tag_level):
        assert satisfies(tag_level, None)


class TestSchedulerProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=50))
    def test_execution_order_is_sorted(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ("schedule_at", "post_at", "cancel", "step", "peek_time", "run", "burst")
                ),
                st.integers(min_value=0, max_value=100),
            ),
            max_size=60,
        )
    )
    def test_pending_equals_a_heap_scan(self, ops):
        # pending() is the heap length minus a dead-entry count kept by
        # cancel, by the pops of cancelled entries and by compaction.
        # After any mix of those it must equal a scan for live entries.
        sim = Simulator()
        events = []  # every Event scheduled, executed and cancelled ones too

        def noop():
            pass

        def live_in_heap():
            return sum(1 for e in sim._heap if len(e) == 5 or not e[3].cancelled)

        for op, k in ops:
            time = sim.now + (k % 20) * 0.01
            if op == "schedule_at":
                events.append(sim.schedule_at(time, noop, priority=k % 2))
            elif op == "post_at":
                sim.post_at(time, noop, ())
            elif op == "cancel" and events:
                # May hit an executed event (cancel after pop) or a
                # cancelled one (double cancel): both must be no-ops.
                events[k % len(events)].cancel()
            elif op == "step":
                sim.step()
            elif op == "peek_time":
                sim.peek_time()
            elif op == "run":
                sim.run(until=time)
            elif op == "burst":
                # Enough cancels to outnumber the rest of the heap, so
                # compaction must run at least once.
                before = len(sim._heap)
                burst = [sim.schedule_at(time + 1.0, noop) for _ in range(70 + k)]
                for event in burst:
                    event.cancel()
                events.extend(burst)
                if len(burst) > before:
                    assert len(sim._heap) < before + len(burst)
            assert sim.pending() == live_in_heap()
        sim.run()
        assert sim.pending() == 0 and not sim._heap


class TestZipfProperties:
    @given(
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    def test_samples_in_range_and_cdf_complete(self, n, alpha):
        sampler = ZipfSampler(n, alpha, random.Random(1))
        assert all(0 <= sampler.sample() < n for _ in range(20))
        assert sampler._cdf[-1] == 1.0

    @given(st.integers(min_value=2, max_value=500))
    def test_probability_monotone_decreasing(self, n):
        sampler = ZipfSampler(n, 0.7, random.Random(1))
        probs = [sampler.probability(i) for i in range(n)]
        assert all(x >= y - 1e-12 for x, y in zip(probs, probs[1:]))
