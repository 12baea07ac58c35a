"""Profile and heartbeat, sampler, and scheduler-observability behaviour."""

from __future__ import annotations

import io
import threading
import time

import pytest

from repro.filters.bloom import BloomFilter
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario
from repro.obs.instruments import SAMPLE_INTERVAL
from repro.obs.layers import LayerTracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Heartbeat
from repro.obs.samplers import PeriodicSampler
from repro.obs.session import TelemetrySession
from repro.sim.engine import Simulator
from tests.conftest import attach_client, bare_run, build_mini_net


def _profiled_session(sim):
    return LayerTracer().install(bare_run(sim))


class TestSimProfiler:
    """The ``profile`` row (the run under the layer tracer) and the
    ``heartbeat`` row."""

    def test_categories_and_rates(self):
        sim = Simulator(seed=1)
        bloom = BloomFilter(capacity=64)

        def tick():
            bloom.contains("/a")

        for i in range(10):
            sim.schedule(0.1 * i, tick)
            sim.schedule(0.1 * i + 0.05, lambda: None)
        session = _profiled_session(sim)
        sim.run()
        report = session.finalize()

        assert report["events"] == 20
        assert report["events_per_second"] > 0
        assert report["layers"]["sim.loop"]["calls"] == 1
        assert report["layers"]["filters.contains"]["calls"] == 10
        own = sum(row["self_s"] for row in report["layers"].values())
        assert own == pytest.approx(report["layers"]["sim.loop"]["total_s"])

    def test_profiled_run_executes_identically(self):
        def trail(sim):
            order = []
            sim.schedule(2.0, order.append, "b")
            sim.schedule(1.0, order.append, "a")
            event = sim.schedule(1.5, order.append, "x")
            sim.schedule(0.5, event.cancel)
            return order

        plain = Simulator(seed=3)
        expected = trail(plain)
        plain.run()

        profiled = Simulator(seed=3)
        got = trail(profiled)
        session = _profiled_session(profiled)
        profiled.run()
        session.finalize()
        assert got == expected == ["a", "b"]
        assert profiled.events_executed == plain.events_executed
        assert profiled.now == plain.now

    def test_render_is_textual(self):
        sim = Simulator(seed=1)
        sim.schedule(1.0, lambda: None)
        with LayerTracer() as tracer:
            sim.run()
        text = tracer.render()
        assert "events/sec" in text
        assert "sim.loop" in text

    def test_heartbeat_writes_pulses(self):
        stream = io.StringIO()
        sim = Simulator(seed=1)
        for i in range(5):
            sim.schedule(float(i), time.sleep, 0.02)
        heartbeat = Heartbeat(period=0.005, stream=stream).install(bare_run(sim))
        sim.run()
        assert heartbeat.finalize() == {"runs": 1}
        pulses = stream.getvalue().strip().splitlines()
        assert len(pulses) >= 2
        assert "sim.now=" in pulses[-1] and "events" in pulses[-1]
        assert not any(t.name == "repro-heartbeat" for t in threading.enumerate())

    def test_heartbeat_stops_when_finalize_fails(self):
        class Failing:
            """A peer that finalizes before the heartbeat and raises."""

            name = "fleetperf"  # the last row: finalized first

            def install(self, run):
                return self

            def finalize(self):
                raise OSError("disk full")

        scenario = Scenario.paper_topology(1, duration=1.0, seed=1, scale=0.1)
        with pytest.raises(OSError):
            run_scenario(
                scenario, instruments=[Heartbeat(0.001, io.StringIO()), Failing()]
            )
        assert not any(t.name == "repro-heartbeat" for t in threading.enumerate())


class TestPeriodicSampler:
    def test_series_and_registry_gauges(self):
        sim = Simulator(seed=2)
        registry = MetricsRegistry()
        sampler = PeriodicSampler(sim, interval=1.0, until=5.0, registry=registry)
        state = {"v": 0.0}
        sampler.add_probe("queue_depth", lambda: state["v"], node="edge-0")

        def bump():
            state["v"] += 1.0
            sim.schedule(1.0, bump)

        sim.schedule(0.5, bump)
        sampler.start()
        sim.run(until=5.0)

        series = sampler.series_dict()
        assert series[0]["name"] == "queue_depth"
        assert series[0]["labels"] == {"node": "edge-0"}
        times = [t for t, _ in series[0]["samples"]]
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]
        values = [v for _, v in series[0]["samples"]]
        assert values == [1.0, 2.0, 3.0, 4.0, 5.0]
        # The registry gauge reads the live value at snapshot time.
        snap = registry.snapshot()
        assert snap["queue_depth"]["samples"][0]["value"] == state["v"]

    def test_horizon_bounds_ticking(self):
        sim = Simulator(seed=2)
        sampler = PeriodicSampler(sim, interval=1.0, until=3.0)
        sampler.add_probe("pending", sim.pending)
        sampler.start()
        sim.run(until=10.0)
        assert sampler.ticks == 3
        assert sim.pending() == 0  # no stray tick left queued

    def test_standard_probes_cover_tables_and_links(self):
        net = build_mini_net()
        sampler = PeriodicSampler(net.sim, interval=1.0, until=4.0)
        sampler.install_standard_probes(net.network)
        names = {probe.name for probe in sampler.probes}
        assert {
            "sim_pending_events",
            "pit_entries",
            "cs_entries",
            "cs_hit_ratio",
            "bf_fill_ratio",
            "bf_current_fpp",
            "link_queue_seconds",
        } <= names
        client = attach_client(net, "alice")
        client.start(at=0.0, until=3.0)
        sampler.start()
        net.sim.run(until=6.0)
        assert sampler.ticks == 4
        pit_series = [
            series for series in sampler.series_dict()
            if series["name"] == "pit_entries"
        ]
        assert pit_series and all(len(s["samples"]) == 4 for s in pit_series)

    def test_flush_captures_partial_tail_interval(self):
        sim = Simulator(seed=2)
        sampler = PeriodicSampler(sim, interval=1.0)
        state = {"v": 0.0}
        sampler.add_probe("depth", lambda: state["v"])
        sampler.start()
        sim.run(until=2.0)
        state["v"] = 7.0
        sim.run(until=2.6)  # past the last whole-interval tick
        assert sampler.flush() == 1
        samples = sampler.series_dict()[0]["samples"]
        assert samples[-1] == [2.6, 7.0]
        assert sampler.ticks == 3

    def test_flush_idempotent_per_instant(self):
        sim = Simulator(seed=2)
        sampler = PeriodicSampler(sim, interval=1.0)
        sampler.add_probe("pending", sim.pending)
        sampler.start()
        sim.run(until=1.5)
        assert sampler.flush() == 1
        assert sampler.flush() == 0  # same instant: no duplicate sample
        samples = sampler.series_dict()[0]["samples"]
        assert [t for t, _ in samples] == [1.0, 1.5]

    def test_flush_noop_on_tick_boundary(self):
        sim = Simulator(seed=2)
        sampler = PeriodicSampler(sim, interval=1.0)
        sampler.add_probe("pending", sim.pending)
        sampler.start()
        sim.run(until=3.0)
        # The tick at t=3.0 already sampled this instant.
        assert sampler.flush() == 0
        assert sampler.ticks == 3

    def test_stop_flushes_then_silences(self):
        sim = Simulator(seed=2)
        sampler = PeriodicSampler(sim, interval=1.0)
        sampler.add_probe("pending", sim.pending)
        sampler.start()
        sim.run(until=0.4)  # shorter than one interval: only flush sees it
        sampler.stop()
        samples = sampler.series_dict()[0]["samples"]
        assert [t for t, _ in samples] == [0.4]
        assert sampler.flush() == 0  # stopped: flush is inert
        sim.run(until=5.0)
        assert sampler.ticks == 1  # no further ticks after stop

    def test_sampling_does_not_change_published_values(self):
        def measure(with_sampler):
            net = build_mini_net()
            if with_sampler:
                sampler = PeriodicSampler(net.sim, interval=0.5, until=8.0)
                sampler.install_standard_probes(net.network)
                sampler.start()
            client = attach_client(net, "alice")
            client.start(at=0.0, until=5.0)
            net.sim.run(until=8.0)
            return [latency for _, latency in client.stats.latency_samples]

        assert measure(True) == measure(False)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            PeriodicSampler(Simulator(), interval=0.0)

    def test_samples_row_backs_telemetry_gauges(self):
        scenario = Scenario.paper_topology(1, duration=2.0, seed=3, scale=0.1)
        telemetry, sampler = TelemetrySession(), PeriodicSampler()
        result = run_scenario(scenario, instruments=[sampler, telemetry])
        assert sampler.interval == SAMPLE_INTERVAL
        record = result.instruments["samples"]
        pending = [s for s in record["series"] if s["name"] == "sim_pending_events"]
        times = [t for t, _ in pending[0]["samples"]]
        assert times[:2] == [SAMPLE_INTERVAL, 2 * SAMPLE_INTERVAL]
        assert result.instruments["telemetry"]["samples"] == record["series"]
        assert "pit_entries" in telemetry.registry.snapshot()


class TestSchedulerObservability:
    def test_pending_tracks_schedule_execute_cancel(self):
        sim = Simulator(seed=1)
        assert sim.pending() == 0
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        first.cancel()
        assert sim.pending() == 1
        first.cancel()  # double-cancel is a no-op
        assert sim.pending() == 1
        sim.run()
        assert sim.pending() == 0

    def test_cancel_after_execution_is_noop(self):
        sim = Simulator(seed=1)
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        event.cancel()  # already executed; count must not underflow
        assert sim.pending() == 0

    def test_pending_matches_heap_under_churn(self):
        sim = Simulator(seed=5)
        rng = sim.rng.stream("churn")
        live = []

        def spawn():
            for _ in range(3):
                live.append(sim.schedule(rng.uniform(0.1, 2.0), lambda: None))
            if live and rng.random() < 0.5:
                live.pop(rng.randint(0, len(live) - 1)).cancel()
            if sim.now < 10.0:
                sim.schedule(0.5, spawn)

        sim.schedule(0.0, spawn)
        sim.run(until=5.0)
        expected = sum(
            1 for (_, _, _, event) in sim._heap if not event.cancelled
        )
        assert sim.pending() == expected


class TestTraceSummaryRate:
    def test_rate_conventions(self):
        from repro.experiments.tracelog import TraceSummary, summarize
        from repro.sim.tracing import TraceRecord

        assert TraceSummary().rate() == 0.0
        single = summarize([TraceRecord("cs.hit", 3.0, {"node": "a"})])
        assert single.rate() == 1.0  # minimal 1-second window
        same_time = summarize(
            [TraceRecord("cs.hit", 3.0, {}), TraceRecord("cs.hit", 3.0, {})]
        )
        assert same_time.rate() == 2.0
        spread = summarize(
            [TraceRecord("cs.hit", 0.0, {}), TraceRecord("cs.hit", 4.0, {})]
        )
        assert spread.rate() == 0.5
