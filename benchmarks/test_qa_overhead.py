"""SimSan overhead micro-benchmark.

The sanitizer's contract is *zero cost when off*: the engine dispatches
through ``step()``, which carries the sanitizer hook, only when
``sim.sanitizer`` is set (the default loop carries no per-event
branch), and the table hooks are
single ``x.san is not None`` attribute checks.  This benchmark times
the hot paths in both states and asserts the off state never costs
more than the on state (within timer noise) — i.e. disabling SimSan
really does shed all of its work.  Absolute event rates are published
to ``benchmarks/results/`` for the record; they are not asserted (CI
machines vary), only the off/on ordering is.
"""

from __future__ import annotations

import statistics
import time
from heapq import heappop

from benchmarks.conftest import publish
from repro.filters.bloom import BloomFilter
from repro.ndn.pit import Pit, PitRecord
from repro.qa.simsan import SimSan
from repro.sim.engine import Simulator

#: Generous multiplier: "off is no slower than on, modulo timer noise".
NOISE_BOUND = 1.15

REPEATS = 5


def _best_of(fn) -> float:
    """Minimum of several timed runs — the standard noise filter."""
    samples = []
    for _ in range(REPEATS):
        began = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - began)
    return min(samples)


def _engine_workload(sanitized: bool, events: int = 20_000) -> float:
    def run() -> None:
        sim = Simulator(seed=1)
        if sanitized:
            SimSan(mode="collect").attach_engine(sim)
        sink = []
        for i in range(events):
            sim.schedule(i * 1e-4, sink.append, i)
        sim.run()

    return _best_of(run)


def _table_workload(sanitized: bool, ops: int = 5_000) -> float:
    def run() -> None:
        san = SimSan(mode="collect") if sanitized else None
        pit = Pit(entry_lifetime=10.0)
        bf = BloomFilter(capacity=ops * 2)
        if san is not None:
            pit.san = san
            san.attach_bloom(bf)
        for i in range(ops):
            name = f"/bench/{i}"
            pit.insert(
                name,
                PitRecord(tag=None, flag_f=0.0, in_face=None, arrived_at=0.0),
                now=0.0,
            )
            pit.consume(name, now=0.0)
            bf.insert(name.encode())

    return _best_of(run)


def test_simsan_off_is_zero_cost():
    engine_off = _engine_workload(sanitized=False)
    engine_on = _engine_workload(sanitized=True)
    tables_off = _table_workload(sanitized=False)
    tables_on = _table_workload(sanitized=True)

    lines = [
        "SimSan overhead (best-of-%d wall times)" % REPEATS,
        f"  engine loop   off={engine_off * 1e3:8.2f} ms   on={engine_on * 1e3:8.2f} ms"
        f"   on/off={engine_on / engine_off:5.2f}x",
        f"  table hooks   off={tables_off * 1e3:8.2f} ms   on={tables_on * 1e3:8.2f} ms"
        f"   on/off={tables_on / tables_off:5.2f}x",
    ]
    publish("qa_overhead", "\n".join(lines))

    # The off state must shed all sanitizer work: it may never cost
    # more than the sanitized state beyond timer noise.
    assert engine_off <= engine_on * NOISE_BOUND
    assert tables_off <= tables_on * NOISE_BOUND


def _seed_loop(sim: Simulator) -> None:
    """The seed repository's run loop over the engine's internals (with
    today's dead-entry bookkeeping): no loop selection and no sanitizer
    branch."""
    heap = sim._heap
    while heap and not sim._stopped:
        event = heap[0][3]
        if event.cancelled:
            heappop(heap)
            sim._dead -= 1
            continue
        heappop(heap)
        event.on_cancel = None
        sim.now = event.time
        sim.events_executed += 1
        event.callback(*event.args)


def _drain_time(drain, events: int = 30_000) -> float:
    """Best-of wall time of ``drain(sim)`` alone; scheduling the events
    stays outside the timed region."""
    samples = []
    for _ in range(REPEATS):
        sim = Simulator(seed=1)
        sink: list = []
        for i in range(events):
            sim.schedule(i * 1e-4, sink.append, i)
        began = time.perf_counter()
        drain(sim)
        samples.append(time.perf_counter() - began)
    return min(samples)


def test_run_no_slower_than_seed_loop():
    """``Simulator.run`` (loop selection, then the production loop) may
    cost at most 25% more than the seed loop over the same events: a
    guard against a per-event blowup that a paper point, where the loop
    is ~14% of the wall, would show only diluted."""
    seed = _drain_time(_seed_loop)
    engine = _drain_time(Simulator.run)
    assert engine <= seed * 1.25


def _fleet_workload(collect: bool) -> float:
    from repro.exec.engine import ExperimentEngine
    from repro.experiments.fig6_tag_rates import enumerate_fig6

    specs = enumerate_fig6(duration=2.0, scale=0.1)[:1]

    def run() -> None:
        engine = ExperimentEngine(
            jobs=1, use_cache=False, obs=("telemetry",) if collect else ()
        )
        engine.run_specs(specs, figure="bench")

    return _best_of(run)


def test_fleet_telemetry_off_is_zero_cost():
    """Same contract at the engine layer: with the telemetry instrument
    off (the default), ``run_specs`` installs no session,
    merges nothing, and may never cost more than the collecting state
    beyond timer noise."""
    fleet_off = _fleet_workload(collect=False)
    fleet_on = _fleet_workload(collect=True)

    publish(
        "fleet_overhead",
        "Fleet telemetry overhead (best-of-%d wall times)\n" % REPEATS
        + f"  run_specs     off={fleet_off * 1e3:8.2f} ms   "
        + f"on={fleet_on * 1e3:8.2f} ms   on/off={fleet_on / fleet_off:5.2f}x",
    )

    assert fleet_off <= fleet_on * NOISE_BOUND


def _audit_workload(mode: str, tmp_path=None) -> float:
    """One scenario run with auditing/flight-recording off or on.

    ``mode`` is ``"off"`` (the default run: ``node.audit`` is ``None``
    and the trace hub has no subscriber, so every hook is a single
    attribute check), ``"audit"``, or ``"flightrec"``.
    """
    from repro.experiments.scenario import Scenario
    from repro.experiments.runner import run_scenario
    from repro.obs.audit import DecisionAudit
    from repro.obs.flightrec import FlightRecorder

    scenario = Scenario.paper_topology(1, duration=2.0, seed=1, scale=0.1)

    def run() -> None:
        if mode == "audit":
            run_scenario(scenario, instruments=[DecisionAudit()])
        elif mode == "flightrec":
            run_scenario(scenario, instruments=[FlightRecorder(tmp_path)])
        else:
            run_scenario(scenario)

    return _best_of(run)


def test_audit_off_is_zero_cost(tmp_path):
    """The decision audit's contract mirrors SimSan's: with no audit
    attached the routers pay one ``self.audit is not None`` check per
    enforcement site, so the off state may never cost more than the
    audited state beyond timer noise."""
    audit_off = _audit_workload("off")
    audit_on = _audit_workload("audit")
    rec_on = _audit_workload("flightrec", tmp_path=tmp_path)

    publish(
        "audit_overhead",
        "Decision-audit overhead (best-of-%d wall times)\n" % REPEATS
        + f"  run_scenario  off={audit_off * 1e3:8.2f} ms   "
        + f"audit={audit_on * 1e3:8.2f} ms   "
        + f"audit/off={audit_on / audit_off:5.2f}x\n"
        + f"  flight rec    on={rec_on * 1e3:8.2f} ms   "
        + f"rec/off={rec_on / audit_off:5.2f}x",
    )

    assert audit_off <= audit_on * NOISE_BOUND
    # The recorder arms the whole trace hub (every emission site fires),
    # so the plain run must also undercut it.
    assert audit_off <= rec_on * NOISE_BOUND


def _statescope_workload(on: bool) -> float:
    from repro.exec.engine import ExperimentEngine
    from repro.experiments.fig6_tag_rates import enumerate_fig6

    specs = enumerate_fig6(duration=2.0, scale=0.1)[:1]

    def run() -> None:
        engine = ExperimentEngine(
            jobs=1, use_cache=False, obs=("statescope",) if on else ()
        )
        engine.run_specs(specs, figure="bench")

    return _best_of(run)


def test_statescope_off_is_zero_cost():
    """The state-footprint observatory holds the engine-layer zero-cost
    contract: with ``statescope`` off (the default) ``run_scenario``
    builds no scope and schedules no sampling ticks, so the off state
    may never cost more than the observed state beyond timer noise.
    Only that one direction is asserted — sampling pays a deep-sizeof
    walk per tick, so the on state is legitimately slower."""
    scope_off = _statescope_workload(on=False)
    scope_on = _statescope_workload(on=True)

    publish(
        "statescope_overhead",
        "Statescope overhead (best-of-%d wall times)\n" % REPEATS
        + f"  run_specs     off={scope_off * 1e3:8.2f} ms   "
        + f"on={scope_on * 1e3:8.2f} ms   "
        + f"on/off={scope_on / scope_off:5.2f}x",
    )

    assert scope_off <= scope_on * NOISE_BOUND


def test_off_state_run_to_run_stability():
    """The off path's cost is its own noise floor: repeated runs agree
    to well within the margin the zero-cost assertion relies on."""
    samples = [_table_workload(sanitized=False) for _ in range(3)]
    spread = (max(samples) - min(samples)) / statistics.fmean(samples)
    publish(
        "qa_overhead_stability",
        f"off-state spread over 3 runs: {spread * 100:.1f}% of mean",
    )
    assert spread < 0.5  # pathological-only guard; typical spread is a few %


def _tracer_workload(traced: bool, events: int = 20_000) -> float:
    from repro.obs.layers import LayerTracer

    def run() -> None:
        sim = Simulator(seed=1)
        bf = BloomFilter(capacity=events)
        # Looked up per call, so a traced run goes through the shim.
        probe = lambda item: bf.contains(item)  # noqa: E731
        for i in range(events):
            sim.schedule(i * 1e-4, probe, i)
        if traced:
            with LayerTracer():
                sim.run()
        else:
            sim.run()

    return _best_of(run)


def test_layer_tracer_off_is_zero_cost():
    """The layer tracer puts nothing in the simulator: outside its
    ``with`` block every entry point is the original function, so the
    off state may never cost more than the traced state beyond timer
    noise, and the traced state — two clock reads and a shim call per
    traced call — must stay within a generous constant factor of the
    plain loop."""
    tracer_off = _tracer_workload(traced=False)
    tracer_on = _tracer_workload(traced=True)

    publish(
        "tracer_overhead",
        "Layer-tracer overhead (best-of-%d wall times)\n" % REPEATS
        + f"  engine loop   off={tracer_off * 1e3:8.2f} ms   "
        + f"on={tracer_on * 1e3:8.2f} ms   on/off={tracer_on / tracer_off:5.2f}x",
    )

    assert tracer_off <= tracer_on * NOISE_BOUND
    # Sanity bound on the traced mode itself: the shims are a constant
    # per-call cost, not a blowup.
    assert tracer_on <= tracer_off * 5.0
