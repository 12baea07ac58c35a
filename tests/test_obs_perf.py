"""The per-layer tracer behind ``--obs profile`` (``repro.obs.layers``):
exact self-time arithmetic, traced runs that compute what untraced runs
compute, shim install and restore, flamegraph sampling, and the run
records both leave in ``RunResult.instruments``."""

from __future__ import annotations

import importlib.util
import io
import pathlib
import threading

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario
from repro.filters.bloom import BloomFilter
from repro.obs.layers import ENTRY_POINTS, LayerTracer, resolve
from repro.obs.profiler import Heartbeat, StackSampler, collapsed_text, merge_collapsed
from repro.qa.simsan import SimSan
from repro.sim.engine import Simulator

from tests.conftest import bare_run

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class FakeClock:
    """Deterministic clock: each read advances by ``tick``."""

    def __init__(self, tick=1.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        value = self.now
        self.now += self.tick
        return value


def _tiny_scenario(seed=2):
    return Scenario.paper_topology(1, duration=2.0, seed=seed, scale=0.1)


def _row(tracer, name):
    return tracer.report()["layers"][name]


# ---------------------------------------------------------------------------
# Self-time arithmetic (fake clock, exact numbers)
# ---------------------------------------------------------------------------
class TestPhaseAccounting:
    def test_flat_phase_self_equals_cum(self):
        tracer = LayerTracer(clock=FakeClock())
        tracer.wrap("ndn.pit", lambda: None)()
        # start reads t=0, end reads t=1 -> elapsed 1.0
        assert _row(tracer, "ndn.pit") == {"calls": 1, "total_s": 1.0, "self_s": 1.0}

    def test_nested_phase_debits_parent_self(self):
        tracer = LayerTracer(clock=FakeClock())
        inner = tracer.wrap("filters.contains", lambda: None)
        # outer: start@0 ... inner start@1, end@2 ... outer end@3.
        tracer.wrap("ndn.receive", inner)()
        assert _row(tracer, "ndn.receive")["total_s"] == pytest.approx(3.0)
        assert _row(tracer, "filters.contains")["total_s"] == pytest.approx(1.0)
        # Outer self = 3 - 1 (child elapsed); selves partition the wall.
        assert _row(tracer, "ndn.receive")["self_s"] == pytest.approx(2.0)
        assert _row(tracer, "filters.contains")["self_s"] == pytest.approx(1.0)

    def test_account_is_leaf_and_debits_parent(self):
        tracer = LayerTracer(clock=FakeClock())
        leaf = tracer.wrap("filters.contains", lambda: None)
        middle = tracer.wrap("core.bf_lookup", leaf)
        # root@0 ( middle@1 ( leaf@2..3 ) 4 ) 5: only direct children
        # are debited, so the root is charged for the middle's total.
        tracer.wrap("core.edge", middle)()
        assert _row(tracer, "filters.contains")["self_s"] == pytest.approx(1.0)
        assert _row(tracer, "core.bf_lookup")["self_s"] == pytest.approx(2.0)
        assert _row(tracer, "core.bf_lookup")["total_s"] == pytest.approx(3.0)
        assert _row(tracer, "core.edge")["self_s"] == pytest.approx(2.0)
        assert _row(tracer, "core.edge")["total_s"] == pytest.approx(5.0)

    def test_handler_attribution_on_pop(self):
        # Two entry points sharing a layer name (Pit.find and Pit.insert
        # are both ndn.pit) fold into one row.
        tracer = LayerTracer(clock=FakeClock())
        find = tracer.wrap("ndn.pit", lambda: None)
        insert = tracer.wrap("ndn.pit", lambda: None)
        find()
        insert()
        insert()
        assert _row(tracer, "ndn.pit") == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
        assert list(tracer.report()["layers"]) == ["ndn.pit"]

    def test_report_shares_sum_to_one(self):
        tracer = LayerTracer(clock=FakeClock())
        cs = tracer.wrap("ndn.cs_lookup", lambda: None)
        pit = tracer.wrap("ndn.pit", lambda: None)

        def receive():
            cs()
            pit()

        tracer.wrap("ndn.receive", receive)()
        layers = tracer.report()["layers"]
        own = sum(row["self_s"] for row in layers.values())
        assert own == pytest.approx(layers["ndn.receive"]["total_s"])

    def test_phase_handles_are_cached(self):
        with LayerTracer() as tracer:
            pass
        assert set(tracer.calls) == {row[2] for row in ENTRY_POINTS}
        assert tracer.report()["layers"] == {}


# ---------------------------------------------------------------------------
# Traced engine runs
# ---------------------------------------------------------------------------
class TestObservedLoop:
    def _sim_with_work(self, events=10):
        sim = Simulator(seed=1)
        log = []
        for index in range(events):
            sim.schedule_at(float(index), log.append, index)
        return sim, log

    def test_observed_run_charges_engine_phases(self):
        sim, log = self._sim_with_work()
        with LayerTracer() as tracer:
            sim.run()
        assert log == list(range(10))
        report = tracer.report()
        assert report["events"] == 10
        assert report["layers"]["sim.loop"]["calls"] == 1
        assert report["events_per_second"] > 0

    def test_observed_run_skips_cancelled(self):
        sim, log = self._sim_with_work(events=5)
        victim = sim.schedule_at(2.5, log.append, 99)
        sim.cancel(victim)
        with LayerTracer() as tracer:
            sim.run()
        assert log == list(range(5))
        assert tracer.events == 5 == sim.events_executed

    def test_observed_until_matches_plain_run(self):
        plain_sim, plain_log = self._sim_with_work()
        plain_sim.run(until=4.5)
        traced_sim, traced_log = self._sim_with_work()
        with LayerTracer() as tracer:
            traced_sim.run(until=4.5)
        assert traced_log == plain_log
        assert traced_sim.events_executed == plain_sim.events_executed
        assert traced_sim.now == plain_sim.now
        assert tracer.events == plain_sim.events_executed

    def test_observed_composes_with_sanitizer_digest(self):
        reference = SimSan(mode="collect")
        sim, _ = self._sim_with_work()
        reference.install(bare_run(sim))
        sim.run()

        traced = SimSan(mode="collect")
        sim2, _ = self._sim_with_work()
        traced.install(bare_run(sim2))
        with LayerTracer() as tracer:
            sim2.run()

        assert traced.stream_digest() == reference.stream_digest()
        assert tracer.events == 10

    def test_observed_composes_with_profiler(self):
        sim, log = self._sim_with_work()
        sampler = StackSampler(interval=0.001)
        sampler.start()
        try:
            with LayerTracer() as tracer:
                sim.run()
        finally:
            sampler.stop()
        assert log == list(range(10))
        assert tracer.events == 10
        assert sampler.report()["samples"] == sampler.samples

    def test_step_observed_matches_run_phases(self):
        def run_all(step):
            sim = Simulator(seed=1)
            bloom = BloomFilter(capacity=64)
            # Looked up per call, so the events reach the shim.
            probe = lambda name: bloom.contains(name)  # noqa: E731
            for index in range(6):
                sim.schedule_at(float(index), probe, f"/n/{index}")
            victim = sim.schedule_at(2.25, probe, "/dead")
            sim.cancel(victim)
            with LayerTracer() as tracer:
                if step:
                    while sim.step():
                        pass
                else:
                    sim.run()
            return tracer.report()["layers"], sim

        run_layers, run_sim = run_all(step=False)
        step_layers, step_sim = run_all(step=True)
        assert step_sim.events_executed == run_sim.events_executed == 6
        # step() is not the loop entry point — the only permitted
        # difference between the two tables.
        assert run_layers.pop("sim.loop")["calls"] == 1
        assert "sim.loop" not in step_layers
        calls = lambda layers: {name: row["calls"] for name, row in layers.items()}
        assert calls(step_layers) == calls(run_layers) == {"filters.contains": 6}


# ---------------------------------------------------------------------------
# Install / restore across the entry-point table
# ---------------------------------------------------------------------------
def _current():
    rows = [resolve(module, path) for module, path, _ in ENTRY_POINTS]
    return [owner.__dict__[attr] for owner, attr in rows]


class _Boom:
    """A ``simsan`` stand-in whose first event hook raises."""

    name = "simsan"

    def install(self, run):
        run.sim.sanitizer = self

    def before_event(self, time, priority, callback, args, now):
        raise RuntimeError("boom")


class TestInstallation:
    def test_install_reaches_components_and_uninstall_detaches(self):
        originals = _current()
        with LayerTracer():
            for shim, original in zip(_current(), originals):
                assert shim is not original and shim.__wrapped__ is original
        assert _current() == originals

    def test_uninstall_never_clobbers_a_successor(self):
        originals = _current()
        bloom = BloomFilter(capacity=16)
        with LayerTracer() as outer:
            outer_shims = _current()
            with LayerTracer() as inner:
                bloom.contains("x")
            # The inner exit puts back the outer's shims, not the originals.
            assert _current() == outer_shims
            bloom.contains("y")
        assert _current() == originals
        assert _row(inner, "filters.contains")["calls"] == 1
        assert _row(outer, "filters.contains")["calls"] == 2

    def test_entry_points_resolve_and_match_perfbench(self):
        assert all(callable(entry) for entry in _current())
        path = REPO_ROOT / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert spans.ENTRY_POINTS == ENTRY_POINTS

    def test_entry_points_restored_after_run_and_after_raise(self):
        originals = _current()
        with LayerTracer() as tracer:
            run_scenario(_tiny_scenario())
        assert tracer.events > 0
        assert _current() == originals
        with pytest.raises(RuntimeError):
            with LayerTracer():
                run_scenario(_tiny_scenario(), instruments=[_Boom()])
        assert _current() == originals
        # The profile row restores them too when the run raises, and
        # the heartbeat row's thread stops.
        with pytest.raises(RuntimeError):
            run_scenario(
                _tiny_scenario(),
                instruments=[LayerTracer(), Heartbeat(0.001, io.StringIO()), _Boom()],
            )
        assert _current() == originals
        assert not any(t.name == "repro-heartbeat" for t in threading.enumerate())


# ---------------------------------------------------------------------------
# Zero behaviour change: figure quantities bit-identical under the tracer
# ---------------------------------------------------------------------------
class TestZeroBehaviourChange:
    def test_metrics_identical_with_observatory_on(self):
        plain = run_scenario(_tiny_scenario())
        with LayerTracer() as tracer:
            traced = run_scenario(_tiny_scenario())

        assert traced.to_summary().metrics_dict() == \
            plain.to_summary().metrics_dict()
        assert traced.sim.events_executed == plain.sim.events_executed
        assert tracer.events == plain.sim.events_executed
        layers = tracer.report()["layers"]
        for name in ("ndn.pit", "ndn.cs_lookup", "filters.contains", "core.edge"):
            assert layers[name]["calls"] > 0, name

    def test_run_scenario_report_covers_the_loop(self):
        with LayerTracer() as tracer:
            run_scenario(_tiny_scenario())
        report = tracer.report()
        own = sum(row["self_s"] for row in report["layers"].values())
        assert own / report["wall_seconds"] >= 0.9
        assert report["events"] > 0
        assert report["events_per_second"] > 0


# ---------------------------------------------------------------------------
# Stack sampling / flamegraphs
# ---------------------------------------------------------------------------
class TestStackSampler:
    def test_samples_own_thread_and_writes_collapsed(self):
        sampler = StackSampler(interval=0.001)
        sampler.start()
        deadline = 200_000
        total = 0
        while total < deadline or sampler.samples == 0:
            total += 1
            if total > 50_000_000:  # pragma: no cover - CI safety valve
                break
        sampler.stop()
        assert sampler.samples > 0
        assert sampler.collapsed
        for stack, count in sampler.collapsed.items():
            assert ";" in stack or "." in stack
            assert count >= 1
        lines = collapsed_text(sampler.collapsed).strip().splitlines()
        assert lines
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack
            assert int(count) >= 1
        report = sampler.report()
        assert report["samples"] == sampler.samples
        assert report["stacks"] == sampler.collapsed

    def test_merge_collapsed_sums_counts(self):
        into = {"a;b": 2}
        merge_collapsed(into, {"a;b": 3, "c": 1})
        assert into == {"a;b": 5, "c": 1}

    def test_write_collapsed_module_fn_sorted(self):
        assert collapsed_text({"b;c": 1, "a;b": 2}) == "a;b 2\nb;c 1\n"


# ---------------------------------------------------------------------------
# Run records (the envelope a worker ships home)
# ---------------------------------------------------------------------------
class TestTelemetryEnvelope:
    def test_collect_mode_run_carries_perf_report(self):
        result = run_scenario(_tiny_scenario(), instruments=[LayerTracer()])
        profile = result.instruments["profile"]
        assert profile["events"] == result.sim.events_executed
        assert profile["layers"]["sim.loop"]["calls"] == 1

    def test_collect_mode_flame_rides_envelope(self):
        sampler = StackSampler(interval=0.001)
        result = run_scenario(_tiny_scenario(), instruments=[sampler])
        flame = result.instruments["flame"]
        assert flame["samples"] >= 0
        assert flame["stacks"] == sampler.collapsed
