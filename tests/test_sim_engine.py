"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import SimulationError, Simulator

from tests.conftest import bare_run


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(1.0, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_priority_breaks_ties_before_sequence():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "low", priority=1)
    sim.schedule(1.0, fired.append, "high", priority=0)
    sim.run()
    assert fired == ["high", "low"]


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    assert sim.now == 5.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    sim.cancel(event)
    sim.run()
    assert fired == ["kept"]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0  # clock advanced to the horizon
    sim.run()
    assert fired == ["early", "late"]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1.0, fired.append, "nested")

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "nested"]
    assert sim.now == 2.0


def test_stop_halts_run_loop():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    assert sim.pending() == 1


def test_step_executes_exactly_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.step() is True
    assert sim.step() is False
    assert fired == ["a", "b"]


def test_peek_time_skips_cancelled():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event.cancel()
    assert sim.peek_time() == 2.0


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_run_reentry_rejected():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_determinism_across_instances():
    def run_once():
        sim = Simulator(seed=42)
        values = []
        rng = sim.rng.stream("test")
        for i in range(10):
            sim.schedule(rng.random(), values.append, i)
        sim.run()
        return values

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# step() must route through the same hooks as run()
# ---------------------------------------------------------------------------
def _drain_by_stepping(sim):
    while sim.step():
        pass


def test_step_feeds_sanitizer_like_run():
    from repro.qa.simsan import SimSan

    def build(san=None):
        sim = Simulator(seed=7)
        if san is not None:
            sim.sanitizer = san
        rng = sim.rng.stream("load")
        for i in range(20):
            sim.schedule(rng.random() * 5.0, lambda: None)
        return sim

    ran = SimSan(mode="collect", hash_events=True)
    sim = build(ran)
    sim.run()

    stepped = SimSan(mode="collect", hash_events=True)
    sim2 = build(stepped)
    _drain_by_stepping(sim2)

    assert stepped.events_seen == ran.events_seen == 20
    assert stepped.stream_digest() == ran.stream_digest()


def test_step_feeds_profiler_like_run():
    from repro.filters.bloom import BloomFilter
    from repro.obs.layers import LayerTracer

    def traced(step):
        sim = Simulator(seed=7)
        bloom = BloomFilter(capacity=16)
        for i in range(5):
            sim.schedule(float(i + 1), lambda: bloom.contains("/x"))
        with LayerTracer() as tracer:
            if step:
                _drain_by_stepping(sim)
            else:
                sim.run()
        return tracer.report()["layers"]

    ran = traced(step=False)
    stepped = traced(step=True)
    assert ran["filters.contains"]["calls"] == stepped["filters.contains"]["calls"] == 5
    # step() is not the loop entry point, so only run() is charged to it.
    assert ran["sim.loop"]["calls"] == 1
    assert "sim.loop" not in stepped


def test_step_sanitizer_takes_precedence_over_profiler():
    from repro.obs.layers import LayerTracer
    from repro.qa.simsan import SimSan

    sim = Simulator(seed=7)
    san = SimSan(mode="collect", hash_events=True)
    sim.sanitizer = san
    for i in range(3):
        sim.schedule(float(i + 1), lambda: None)
    tracer = LayerTracer().install(bare_run(sim))
    _drain_by_stepping(sim)
    profile = tracer.finalize()
    # Stepping feeds the sanitizer every event; it never enters the
    # loop entry point, so the profile charges no loop events.
    assert san.events_seen == 3
    assert profile["events"] == 0
    assert "sim.loop" not in profile["layers"]


def test_step_feeds_perf_like_run():
    from repro.filters.bloom import BloomFilter
    from repro.obs.layers import LayerTracer

    def profiled(step):
        sim = Simulator(seed=7)
        bloom = BloomFilter(capacity=16)
        rng = sim.rng.stream("load")
        for i in range(12):
            sim.schedule(rng.random() * 5.0, lambda: bloom.insert("/x"))
        victim = sim.schedule(2.5, lambda: bloom.insert("/x"))
        sim.cancel(victim)
        tracer = LayerTracer().install(bare_run(sim))
        if step:
            _drain_by_stepping(sim)
        else:
            sim.run()
        return sim, tracer.finalize()["layers"]

    ran_sim, ran = profiled(step=False)
    stepped_sim, stepped = profiled(step=True)
    assert stepped_sim.events_executed == ran_sim.events_executed == 12
    assert stepped["filters.insert"]["calls"] == ran["filters.insert"]["calls"] == 12
    assert set(ran) - set(stepped) == {"sim.loop"}


def test_step_perf_composes_with_sanitizer():
    from repro.obs.layers import LayerTracer
    from repro.qa.simsan import SimSan

    def digest(step):
        sim = Simulator(seed=7)
        san = SimSan(mode="collect", hash_events=True)
        sim.sanitizer = san
        for i in range(3):
            sim.schedule(float(i + 1), lambda: None)
        with LayerTracer():
            if step:
                _drain_by_stepping(sim)
            else:
                sim.run()
        assert san.events_seen == 3
        return san.stream_digest()

    assert digest(step=True) == digest(step=False)