"""Profile and scheduler-observability behaviour."""

from __future__ import annotations

import pytest

from repro.filters.bloom import BloomFilter
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario
from repro.obs.instruments import make_live
from repro.obs.instruments import resolve as resolve_obs
from repro.obs.layers import ENTRY_POINTS, LayerTracer, resolve
from repro.sim.engine import Simulator
from tests.conftest import bare_run, trace_detached


def _profiled_session(sim):
    return LayerTracer().install(bare_run(sim))


def _entry_points():
    rows = [resolve(module, path) for module, path, _ in ENTRY_POINTS]
    return [owner.__dict__[attr] for owner, attr in rows]


class TestSimProfiler:
    """The ``profile`` row: the run under the layer tracer."""

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

    def test_shims_and_trace_released_when_finalize_fails(self, tmp_path):
        class Failing(LayerTracer):
            """A profile row whose finalize raises before it restores
            the shims; as the last row it finalizes first."""

            def finalize(self):
                raise OSError("disk full")

        originals = _entry_points()
        (trace,) = make_live(resolve_obs(("trace",), str(tmp_path)))
        scenario = Scenario.paper_topology(1, duration=1.0, seed=1, scale=0.1)
        with pytest.raises(OSError):
            run_scenario(scenario, instruments=[trace, Failing()])
        assert _entry_points() == originals
        assert trace_detached(trace)
        assert list(tmp_path.iterdir()) == []


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
