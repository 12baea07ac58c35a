"""SimSan: each invariant tripped by a deliberately broken component,
the clean path staying silent, the ``simsan`` row of ``--obs``, and
determinism digests."""

from __future__ import annotations

import pytest

from repro.exec import ScenarioSpec, run_specs
from repro.exec.engine import _execute_spec
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario
from repro.filters.bloom import BloomFilter
from repro.ndn.cs import ContentStore
from repro.ndn.name import Name
from repro.ndn.packets import Data, Interest
from repro.ndn.pit import Pit, PitRecord
from repro.obs.instruments import INSTRUMENTS, OBS_ENV, make_live, resolve
from repro.qa.determinism import check_scenario, scenario_digest
from repro.qa.simsan import SanitizerError, SimSan
from repro.sim.engine import Simulator

from tests.conftest import bare_run


def record(face="f0", at=0.0):
    return PitRecord(tag=None, flag_f=0.0, in_face=face, arrived_at=at)


def tiny_scenario(**overrides):
    return Scenario.paper_topology(1, duration=1.0, seed=3, scale=0.05).with_config(
        **overrides
    )


# ---------------------------------------------------------------------------
# PIT invariants
# ---------------------------------------------------------------------------
class TestPitInvariants:
    def test_balanced_lifecycle_is_clean(self):
        san = SimSan(mode="collect")
        pit = Pit(entry_lifetime=2.0)
        pit.san = san
        pit.insert("/a/1", record(), now=0.0)
        pit.insert("/a/1", record("f1"), now=0.5)  # aggregated
        pit.consume("/a/1", now=1.0)
        pit.insert("/b/1", record(), now=1.0)
        pit.purge_expired(now=10.0)
        assert san.finish() == []

    def test_leaked_records_trip_conservation(self):
        san = SimSan(mode="collect")
        pit = Pit(entry_lifetime=2.0)
        pit.san = san
        pit.insert("/a/1", record(), now=0.0)
        # A buggy router forgets state without consuming/expiring it.
        pit._entries.clear()
        violations = san.finish()
        assert [v.kind for v in violations] == ["pit-conservation"]
        assert "leaked" in violations[0].message

    def test_conservation_raises_in_raise_mode(self):
        san = SimSan(mode="raise")
        pit = Pit(entry_lifetime=2.0)
        pit.san = san
        pit.insert("/a/1", record(), now=0.0)
        pit._entries.clear()
        with pytest.raises(SanitizerError, match="pit-conservation"):
            san.finish()

    def test_lazy_expiry_counts_as_accounted(self):
        san = SimSan(mode="collect")
        pit = Pit(entry_lifetime=1.0)
        pit.san = san
        pit.insert("/a/1", record(), now=0.0)
        assert pit.find("/a/1", now=5.0) is None  # lazy expiry path
        assert san.finish() == []

    def test_drop_record_counts_as_accounted(self):
        san = SimSan(mode="collect")
        pit = Pit(entry_lifetime=5.0)
        pit.san = san
        pit.insert("/a/1", record(), now=0.0)
        pit.drop_record("/a/1", lambda r: True)
        assert san.finish() == []

    def test_capacity_rejection_is_accounted(self):
        san = SimSan(mode="collect")
        pit = Pit(entry_lifetime=5.0, capacity=1)
        pit.san = san
        pit.insert("/a/1", record(), now=0.0)
        assert pit.insert("/b/1", record(), now=0.1) is False  # shed
        pit.consume("/a/1", now=0.2)
        assert san.finish() == []

    def test_occupancy_bound_violation(self):
        san = SimSan(mode="raise")
        pit = Pit(entry_lifetime=5.0, capacity=1)
        pit.san = san
        pit.insert("/a/1", record(), now=0.0)
        # Bypass the capacity check entirely.
        pit._entries["/smuggled"] = pit._entries["/a/1"]  # keyed by URI
        with pytest.raises(SanitizerError, match="pit-occupancy"):
            san.check_tables()


# ---------------------------------------------------------------------------
# CS occupancy
# ---------------------------------------------------------------------------
class TestCsInvariants:
    def test_eviction_keeps_bound(self):
        san = SimSan(mode="collect")
        cs = ContentStore(capacity=2)
        cs.san = san
        for i in range(5):
            cs.insert(Data(name=Name(f"/a/{i}")))
        assert san.violations == []

    def test_broken_eviction_trips_bound(self):
        san = SimSan(mode="raise")
        cs = ContentStore(capacity=1)
        cs.san = san
        cs._evict_one = lambda: None  # break the eviction path
        cs.insert(Data(name=Name("/a/1")))
        with pytest.raises(SanitizerError, match="cs-occupancy"):
            cs.insert(Data(name=Name("/a/2")))


# ---------------------------------------------------------------------------
# Bloom filter monotonicity
# ---------------------------------------------------------------------------
class TestBloomInvariants:
    def test_normal_insert_reset_cycle_clean(self):
        san = SimSan(mode="collect", bloom_check_interval=1)
        bf = BloomFilter(capacity=100, max_fpp=1e-2)
        san.attach_bloom(bf)
        for i in range(50):
            bf.insert_with_auto_reset(f"tag-{i}".encode())
        assert san.violations == []

    def test_tampered_count_trips(self):
        san = SimSan(mode="raise")
        bf = BloomFilter(capacity=100)
        san.attach_bloom(bf)
        bf.insert(b"tag-1")
        bf.count += 5  # out-of-band tampering
        with pytest.raises(SanitizerError, match="bf-monotonicity"):
            bf.insert(b"tag-2")

    def test_cleared_bits_trip_fill_check(self):
        san = SimSan(mode="raise", bloom_check_interval=1)
        bf = BloomFilter(capacity=100)
        san.attach_bloom(bf)
        bf.insert(b"tag-1")
        for i in range(len(bf._bits)):  # clear bits without reset()
            bf._bits[i] = 0
        with pytest.raises(SanitizerError, match="bf-monotonicity"):
            san.check_bloom(bf)

    def test_reset_rebaselines_fill(self):
        san = SimSan(mode="collect", bloom_check_interval=1)
        bf = BloomFilter(capacity=100)
        san.attach_bloom(bf)
        for i in range(20):
            bf.insert(f"tag-{i}".encode())
        bf.reset()
        bf.insert(b"after-reset")
        assert san.violations == []


# ---------------------------------------------------------------------------
# Engine: clock monotonicity + event-stream hashing
# ---------------------------------------------------------------------------
class TestEngineInvariants:
    def test_sanitized_run_matches_plain_run(self):
        def build():
            sim = Simulator(seed=1)
            fired = []
            for delay in (2.0, 1.0, 1.5):
                sim.schedule(delay, fired.append, delay)
            return sim, fired

        plain_sim, plain = build()
        plain_sim.run()
        san_sim, sanitized = build()
        SimSan(mode="raise").attach_engine(san_sim)
        san_sim.run()
        assert sanitized == plain == [1.0, 1.5, 2.0]
        assert san_sim.sanitizer.events_seen == 3

    def test_clock_regression_detected(self):
        san = SimSan(mode="raise")
        sim = Simulator(seed=1)
        san.attach_engine(sim)
        with pytest.raises(SanitizerError, match="clock-regression"):
            san.before_event(1.0, 0, lambda: None, (), now=2.0)

    def test_identical_runs_hash_identically(self):
        def digest():
            sim = Simulator(seed=7)
            san = SimSan(mode="collect")
            san.attach_engine(sim)
            out = []
            for delay in (0.5, 1.0):
                sim.schedule(delay, out.append, delay)
            sim.run()
            return san.stream_digest()

        assert digest() == digest()

    def test_divergent_runs_hash_differently(self):
        def digest(extra):
            sim = Simulator(seed=7)
            san = SimSan(mode="collect")
            san.attach_engine(sim)
            out = []
            sim.schedule(0.5, out.append, 0.5)
            if extra:
                sim.schedule(1.0, out.append, 1.0)
            sim.run()
            return san.stream_digest()

        assert digest(False) != digest(True)


# ---------------------------------------------------------------------------
# Interest disposition (anti-black-hole)
# ---------------------------------------------------------------------------
class TestInterestDisposition:
    class _BlackHoleNode:
        """A toy forwarder that silently swallows every Interest."""

        def __init__(self):
            self.node_id = "blackhole"
            self.pit = None
            self.cs = None
            self.bloom = None
            self.unroutable_drops = 0

        def send(self, face, packet, delay=0.0):
            pass

        def on_interest(self, interest, in_face):
            pass  # the bug: no forward, no PIT entry, no drop accounting

    class _DroppingNode(_BlackHoleNode):
        def __init__(self):
            super().__init__()
            self.node_id = "dropper"

        def on_interest(self, interest, in_face):
            self.unroutable_drops += 1

    def test_black_hole_detected(self):
        san = SimSan(mode="raise")
        node = self._BlackHoleNode()
        san.attach_node(node)
        with pytest.raises(SanitizerError, match="black-hole"):
            node.on_interest(Interest(name=Name("/a/1")), None)

    def test_accounted_drop_is_clean(self):
        san = SimSan(mode="collect")
        node = self._DroppingNode()
        san.attach_node(node)
        node.on_interest(Interest(name=Name("/a/1")), None)
        assert san.violations == []


# ---------------------------------------------------------------------------
# The ``simsan`` row + full-scenario integration
# ---------------------------------------------------------------------------
_REAL_INSERT = BloomFilter.insert


def _tampered_insert(self, item):
    """A Bloom insert whose counter moves out of band after the hook."""
    _REAL_INSERT(self, item)
    self.count += 1


class _TamperedSpec(ScenarioSpec):
    """A spec whose build seeds the Bloom counter tamper into whichever
    process runs it, a spawned pool worker included."""

    def build(self):
        BloomFilter.insert = _tampered_insert
        return super().build()


def fast_spec(seed=1, cls=ScenarioSpec):
    return cls.make(topology=1, duration=2.0, scale=0.1, seed=seed)


class TestGatingAndIntegration:
    def test_obs_env_selects_the_row(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV, "audit,simsan")
        obs = resolve()
        assert obs.names == ("simsan", "audit")  # SimSan installs first
        san = INSTRUMENTS["simsan"].make(obs)
        assert isinstance(san, SimSan) and san.mode == "raise"

    def test_unsanitized_run_has_no_hooks(self, monkeypatch):
        monkeypatch.delenv(OBS_ENV, raising=False)
        result = run_scenario(tiny_scenario())
        assert result.sim.sanitizer is None
        assert result.instruments == {}
        node = next(iter(result.network.nodes.values()))
        assert getattr(node.pit, "san", None) is None

    def test_env_gated_scenario_run_is_clean(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV, "simsan")
        result = run_scenario(tiny_scenario())
        san = result.sim.sanitizer
        assert isinstance(san, SimSan)
        assert san.events_seen > 0
        assert san.violations == []
        assert result.instruments["simsan"] == {
            "digest": san.stream_digest(), "events": san.events_seen,
        }

    def test_explicit_sanitizer_scenario_run_is_clean(self):
        san = SimSan(mode="collect")
        result = run_scenario(tiny_scenario(), instruments=[san])
        assert san.finish() == []
        assert result.instruments["simsan"]["violations"] == []
        assert result.instruments["simsan"]["digest"] == san.stream_digest()

    def test_collect_record_carries_the_violations(self):
        san = SimSan(mode="collect").install(bare_run(Simulator(seed=1)))
        pit = Pit(entry_lifetime=2.0)
        pit.san = san
        pit.insert("/a/1", record(), now=0.0)
        pit._entries.clear()  # leak the record
        (violation,) = san.finalize()["violations"]
        assert violation["kind"] == "pit-conservation"

    def test_row_digest_is_the_determinism_digest(self):
        spec = fast_spec()
        summary = _execute_spec(spec, resolve(("simsan",)))
        reference = scenario_digest(spec.build())
        assert summary.instruments["simsan"] == {
            "digest": reference.stream, "events": reference.events,
        }
        assert reference.events == summary.events_executed

    def test_profile_counts_match_with_and_without_simsan(self):
        # SimSan wraps each node's on_interest and send per instance;
        # the wrappers must still reach the layer profile's class shims,
        # installed after them, so selecting simsan moves no count.
        def router_calls(names):
            scenario = Scenario.paper_topology(1, duration=1.0, seed=1, scale=0.05)
            result = run_scenario(scenario, instruments=make_live(resolve(names)))
            layers = result.instruments["profile"]["layers"]
            return {
                layer: layers.get(layer, {}).get("calls", 0)
                for layer in ("core.edge", "core.core", "core.provider")
            }

        plain = router_calls(("profile",))
        assert all(plain.values())
        assert router_calls(("simsan", "profile")) == plain


class TestSeededViolationThroughTheEngine:
    """A tampered Bloom insert counter must fail the run: the engine
    returns no summary, and so no digest, for a run that broke an
    invariant."""

    def test_serial_run_raises(self, monkeypatch):
        monkeypatch.setattr(BloomFilter, "insert", _tampered_insert)
        with pytest.raises(SanitizerError, match="bf-monotonicity"):
            run_specs([fast_spec()], jobs=1, use_cache=False, obs=("simsan",))

    def test_pool_worker_raises(self):
        specs = [fast_spec(seed, cls=_TamperedSpec) for seed in (1, 2)]
        with pytest.raises(SanitizerError, match="bf-monotonicity"):
            run_specs(specs, jobs=2, use_cache=False, obs=("simsan",))
        assert BloomFilter.insert is _REAL_INSERT  # only the workers were tampered


# ---------------------------------------------------------------------------
# Double-run determinism on scenarios
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_same_scenario_twice_is_deterministic(self):
        report = check_scenario(tiny_scenario(), label="tiny")
        assert report.ok, report.describe()
        assert report.first_divergent_block() is None
        assert "deterministic" in report.describe()

    def test_different_seeds_diverge(self):
        a = scenario_digest(tiny_scenario())
        b = scenario_digest(
            Scenario.paper_topology(1, duration=1.0, seed=4, scale=0.05)
        )
        assert a.stream != b.stream

    def test_dispatch_digests_are_pinned(self):
        """``python -m repro.qa.determinism --duration 3 --scale 0.1``
        prints these digests (docs/STATIC_ANALYSIS.md); they do not
        depend on ``PYTHONHASHSEED``.  Any change to a dispatched
        event's time (down to float rounding), priority, callback or
        order, or an event added or dropped, moves them."""
        import argparse

        from repro.qa.determinism import _default_scenarios

        args = argparse.Namespace(topology=1, duration=3.0, scale=0.1, seed=3)
        got = {
            label: (digest.events, digest.stream)
            for label, scenario in _default_scenarios(args)
            for digest in [scenario_digest(scenario)]
        }
        assert got == {
            "fig5-style": (30933, "6f130b04abb2261a0c2a57b5d89d1a4f"),
            "fig6-style": (29668, "4400b6ff66a4da6ef1f9e0ca1289dbce"),
        }
