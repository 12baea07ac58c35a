"""Unit tests for metrics aggregation and the revocation policy."""

import pytest

from repro.core.metrics import MetricsCollector, OpCounters, UserStats
from repro.core.revocation import ExpiryRevocation

from tests.conftest import attach_client, build_mini_net


class TestOpCounters:
    def test_note_reset_records_interval(self):
        counters = OpCounters()
        for _ in range(10):
            counters.requests_since_reset += 1
        counters.note_reset()
        for _ in range(20):
            counters.requests_since_reset += 1
        counters.note_reset()
        assert counters.reset_intervals == [10, 20]
        assert counters.bf_resets == 2
        assert counters.requests_since_reset == 0

    def test_merged_with(self):
        a = OpCounters(bf_lookups=5, bf_inserts=2, signature_verifications=1)
        a.reset_intervals = [10]
        b = OpCounters(bf_lookups=3, nacks_issued=4)
        b.reset_intervals = [20]
        merged = a.merged_with(b)
        assert merged.bf_lookups == 8
        assert merged.bf_inserts == 2
        assert merged.nacks_issued == 4
        assert merged.reset_intervals == [10, 20]
        # Merge does not mutate the inputs.
        assert a.bf_lookups == 5 and b.bf_lookups == 3


class TestUserStats:
    def test_delivery_ratio(self):
        stats = UserStats(user_id="u")
        assert stats.delivery_ratio() == 0.0
        stats.chunks_requested = 10
        stats.chunks_received = 9
        assert stats.delivery_ratio() == pytest.approx(0.9)


class TestMetricsCollector:
    def build(self):
        collector = MetricsCollector()
        client = collector.user("c1")
        client.chunks_requested, client.chunks_received = 100, 99
        client.latency_samples = [(0.5, 0.010), (0.7, 0.020), (1.5, 0.030)]
        client.tags_requested, client.tags_received = 4, 4
        attacker = collector.user("a1", is_attacker=True)
        attacker.chunks_requested, attacker.chunks_received = 50, 1
        return collector

    def test_user_is_cached(self):
        collector = MetricsCollector()
        assert collector.user("x") is collector.user("x")

    def test_delivery_ratios_split_populations(self):
        collector = self.build()
        assert collector.delivery_ratio(attackers=False) == pytest.approx(0.99)
        assert collector.delivery_ratio(attackers=True) == pytest.approx(0.02)

    def test_latency_series_buckets(self):
        collector = self.build()
        series = collector.latency_series(bucket=1.0)
        assert series == [(0.0, pytest.approx(0.015)), (1.0, pytest.approx(0.030))]

    def test_latency_series_excludes_attackers(self):
        collector = self.build()
        collector.user("a1").latency_samples = [(0.1, 9.9)]
        series = collector.latency_series()
        assert all(latency < 1.0 for _, latency in series)

    def test_mean_latency(self):
        collector = self.build()
        assert collector.mean_latency() == pytest.approx(0.020)
        assert MetricsCollector().mean_latency() is None

    def test_tag_rates(self):
        collector = self.build()
        q, r = collector.tag_rates(duration=2.0)
        assert (q, r) == (2.0, 2.0)
        assert collector.tag_rates(0.0) == (0.0, 0.0)

    def test_router_registration_and_merge(self):
        collector = MetricsCollector()
        edge = OpCounters(bf_lookups=10)
        core = OpCounters(bf_lookups=3)
        collector.register_router("e1", edge, is_edge=True)
        collector.register_router("c1", core, is_edge=False)
        assert collector.merged_counters(edge=True).bf_lookups == 10
        assert collector.merged_counters(edge=False).bf_lookups == 3

    def test_reset_threshold(self):
        collector = MetricsCollector()
        counters = OpCounters()
        counters.reset_intervals = [100, 200]
        collector.register_router("e1", counters, is_edge=True)
        assert collector.reset_threshold(edge=True) == pytest.approx(150.0)
        assert collector.reset_threshold(edge=False) is None

    def test_zero_requested_ratio(self):
        collector = MetricsCollector()
        collector.user("idle")
        assert collector.delivery_ratio() == 0.0


class TestExpiryRevocation:
    def test_policy_math(self):
        policy = ExpiryRevocation(tag_lifetime=10.0)
        assert policy.worst_case_exposure() == 10.0
        assert policy.expected_registrations_per_second(50) == pytest.approx(5.0)

    def test_invalid_lifetime(self):
        with pytest.raises(ValueError):
            ExpiryRevocation(tag_lifetime=0.0)

    def test_revoked_client_loses_access_after_expiry(self):
        net = build_mini_net()
        client = attach_client(net, "client-0")
        client.start(at=0.0, until=30.0)
        policy = ExpiryRevocation(tag_lifetime=net.config.tag_expiry)
        # Revoke at t=5; the current tag (issued ~t=0) dies by t<=15.
        net.sim.schedule(5.0, policy.revoke, net.provider, "client-0")
        net.run(until=32.0)
        stats = net.metrics.user("client-0")
        dead_by = 5.0 + policy.worst_case_exposure() + 1.0
        late_deliveries = [t for t, _ in stats.latency_samples if t > dead_by]
        assert stats.chunks_received > 0  # worked before revocation
        assert late_deliveries == []  # and was cut off afterwards
        assert stats.tags_received >= 1
