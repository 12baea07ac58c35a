"""Unit tests for Bloom filters, counting filters, and sizing math."""

import hashlib
import math

import pytest

from benchmarks.test_bloom_micro import _naive_contains
from repro.filters import (
    BloomFilter,
    CountingBloomFilter,
    estimate_fpp,
    optimal_num_hashes,
    size_for_capacity,
)
from repro.filters.bloom import PROBE_MEMO_SIZE, _probes


class TestParams:
    def test_fpp_zero_when_empty(self):
        assert estimate_fpp(1000, 5, 0) == 0.0

    def test_fpp_monotonic_in_items(self):
        fpps = [estimate_fpp(1000, 5, n) for n in range(0, 500, 50)]
        assert fpps == sorted(fpps)

    def test_fpp_approaches_one(self):
        assert estimate_fpp(100, 5, 100000) == pytest.approx(1.0, abs=1e-6)

    def test_size_for_capacity_hits_target(self):
        m = size_for_capacity(500, 1e-4, 5)
        assert estimate_fpp(m, 5, 500) <= 1e-4
        # And it is tight: one less capacity-worth of bits overshoots.
        assert estimate_fpp(m - m // 10, 5, 500) > 1e-4

    def test_size_scales_linearly_with_capacity(self):
        m1 = size_for_capacity(500, 1e-4, 5)
        m2 = size_for_capacity(5000, 1e-4, 5)
        assert m2 / m1 == pytest.approx(10.0, rel=0.01)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            size_for_capacity(0, 1e-4, 5)
        with pytest.raises(ValueError):
            size_for_capacity(10, 1.5, 5)
        with pytest.raises(ValueError):
            size_for_capacity(10, 1e-4, 0)
        with pytest.raises(ValueError):
            optimal_num_hashes(0, 10)

    def test_optimal_hashes_formula(self):
        m, n = 9585, 1000  # m/n ≈ 9.6 → k ≈ 6.6
        assert optimal_num_hashes(m, n) == round(m / n * math.log(2))


class TestBloomFilter:
    def test_no_false_negatives(self):
        bf = BloomFilter(capacity=200)
        items = [f"tag-{i}".encode() for i in range(200)]
        for item in items:
            bf.insert(item)
        assert all(bf.contains(item) for item in items)

    def test_fresh_filter_rejects_everything(self):
        bf = BloomFilter(capacity=100)
        assert not any(bf.contains(f"x{i}") for i in range(100))

    def test_false_positive_rate_near_design_point(self):
        bf = BloomFilter(capacity=500, max_fpp=1e-2, sizing_fpp=1e-2)
        for i in range(500):
            bf.insert(f"member-{i}")
        probes = 20000
        false_positives = sum(bf.contains(f"probe-{i}") for i in range(probes))
        rate = false_positives / probes
        assert rate < 5e-2  # within a few x of the 1e-2 design point

    def test_saturation_at_capacity(self):
        bf = BloomFilter(capacity=100, max_fpp=1e-4, sizing_fpp=1e-4)
        for i in range(99):
            bf.insert(f"t{i}")
        assert not bf.is_saturated()
        bf.insert("t99")
        bf.insert("t100")
        assert bf.is_saturated()

    def test_higher_threshold_absorbs_more_inserts(self):
        # Fixed sizing, swept reset threshold — the Fig. 8 lever.
        low = BloomFilter(capacity=100, max_fpp=1e-4, sizing_fpp=1e-4)
        high = BloomFilter(capacity=100, max_fpp=1e-2, sizing_fpp=1e-4)
        assert low.size_bits == high.size_bits

        def inserts_until_saturated(bf):
            count = 0
            while not bf.is_saturated():
                bf.insert(f"i{count}")
                count += 1
            return count

        assert inserts_until_saturated(high) > 2 * inserts_until_saturated(low)

    def test_reset_clears_membership_keeps_stats(self):
        bf = BloomFilter(capacity=100)
        bf.insert("a")
        assert bf.contains("a")
        bf.reset()
        assert bf.lookups_since_reset == 0
        assert not bf.contains("a")
        assert bf.count == 0
        assert bf.total_inserts == 1
        assert bf.reset_count == 1

    def test_insert_with_auto_reset(self):
        bf = BloomFilter(capacity=10)
        fired = [bf.insert_with_auto_reset(f"t{i}") for i in range(15)]
        assert any(fired)
        assert bf.reset_count >= 1

    def test_operation_counters(self):
        bf = BloomFilter(capacity=100)
        bf.insert("a")
        bf.insert("a")
        bf.contains("a")
        bf.contains("b")
        assert bf.total_inserts == 2
        assert bf.total_lookups == 2

    def test_str_and_bytes_items_equivalent(self):
        bf = BloomFilter(capacity=100)
        bf.insert("tag")
        assert bf.contains(b"tag")
        assert "tag" in bf

    def test_fill_ratio_grows(self):
        bf = BloomFilter(capacity=100)
        assert bf.fill_ratio() == 0.0
        for i in range(50):
            bf.insert(f"t{i}")
        assert 0.0 < bf.fill_ratio() < 1.0


def _naive_bits(bloom, items):
    """The bit array a filter of ``bloom``'s shape holds after inserting
    ``items``, from the double-hash formula with no memo."""
    bits = bytearray(len(bloom._bits))
    for item in items:
        key = item.encode("utf-8") if isinstance(item, str) else bytes(item)
        digest = hashlib.blake2b(key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1
        for i in range(bloom.num_hashes):
            idx = (h1 + i * h2) % bloom.size_bits
            bits[idx >> 3] |= 1 << (idx & 7)
    return bits


class TestProbeMemo:
    """``contains``/``insert`` walk memoized probe positions; they must
    agree with the unmemoized double hash, cold or warm."""

    def test_repeated_keys_match_the_reference(self):
        _probes.cache_clear()
        bloom = BloomFilter(capacity=50, max_fpp=1e-2)
        keys = [f"tag-{i % 7}".encode() for i in range(60)]
        for key in keys:
            bloom.insert(key)
        assert bloom._bits == _naive_bits(bloom, keys)
        probes = [f"tag-{i % 13}".encode() for i in range(80)]
        for _ in range(2):  # the second pass is all memo hits
            assert [bloom.contains(p) for p in probes] == [
                _naive_contains(bloom, p) for p in probes
            ]
        assert _probes.cache_info().hits > 0

    def test_one_key_in_two_filters_of_different_sizes(self):
        small = BloomFilter(capacity=10)
        large = BloomFilter(capacity=1000)
        assert small.size_bits != large.size_bits
        key = b"shared-tag"
        small.insert(key)
        large.insert(key)
        assert small._bits == _naive_bits(small, [key])
        assert large._bits == _naive_bits(large, [key])
        # A memo entry of one size must not answer for the other.
        for other in (b"other-%d" % i for i in range(200)):
            small.insert(other)
            assert large.contains(other) == _naive_contains(large, other)

    def test_str_and_bytearray_items(self):
        bloom = BloomFilter(capacity=100)
        bloom.insert("text-tag")
        bloom.insert(bytearray(b"buffer-tag"))
        assert bloom._bits == _naive_bits(bloom, ["text-tag", b"buffer-tag"])
        for item in ("text-tag", b"text-tag", bytearray(b"text-tag"), "buffer-tag",
                     bytearray(b"buffer-tag"), "absent", bytearray(b"absent")):
            key = item.encode("utf-8") if isinstance(item, str) else bytes(item)
            assert bloom.contains(item) == _naive_contains(bloom, key)

    def test_counting_filter_shares_the_probe_positions(self):
        cbf = CountingBloomFilter(capacity=100)
        cbf.insert(bytearray(b"k"))
        assert cbf.contains("k") and cbf.contains(b"k")
        assert cbf.remove(b"k") and not cbf.contains(bytearray(b"k"))

    def test_memo_is_bounded(self):
        bloom = BloomFilter(capacity=100)
        for i in range(PROBE_MEMO_SIZE + 10):
            bloom.contains(b"distinct-%d" % i)
        info = _probes.cache_info()
        assert info.maxsize == PROBE_MEMO_SIZE
        assert info.currsize <= PROBE_MEMO_SIZE


class TestCountingBloomFilter:
    def test_insert_remove_roundtrip(self):
        cbf = CountingBloomFilter(capacity=100)
        cbf.insert("tag")
        assert cbf.contains("tag")
        assert cbf.remove("tag")
        assert not cbf.contains("tag")

    def test_remove_absent_is_safe(self):
        cbf = CountingBloomFilter(capacity=100)
        cbf.insert("present")
        assert not cbf.remove("absent")
        assert cbf.contains("present")

    def test_duplicate_inserts_need_duplicate_removes(self):
        cbf = CountingBloomFilter(capacity=100)
        cbf.insert("x")
        cbf.insert("x")
        assert cbf.remove("x")
        assert cbf.contains("x")
        assert cbf.remove("x")
        assert not cbf.contains("x")

    def test_saturation(self):
        cbf = CountingBloomFilter(capacity=10)
        for i in range(20):
            cbf.insert(f"t{i}")
        assert cbf.is_saturated()
