"""Sim-core throughput benchmark — the ``BENCH_simcore.json`` source.

Measures single-core event throughput on the canonical fig6-scale
scenario (paper topology 1; duration via ``REPRO_BENCH_SIMCORE_DURATION``,
default 4 virtual seconds at scale 0.2 — a documented fraction of the
paper's 2000-second ns-3 runs) in three configurations:

1. **off** — the plain engine loop, no instruments: the headline
   ``events_per_sec`` number and the baseline ROADMAP item 1's 10×
   overhaul is judged against.
2. **traced** — the same scenario under the
   :class:`~repro.obs.layers.LayerTracer` with a
   :class:`~repro.obs.profiler.StackSampler` alongside: the per-layer
   table (calls, total and self seconds) and collapsed stacks
   (``results/flame_simcore.txt``).
3. **replica** — a verbatim copy of the seed hot loop driven over the
   engine's internals, vs ``sim.run()``, to measure what the engine's
   loop selection costs over the bare loop (``off_overhead_pct``).

The document is written to ``benchmarks/results/BENCH_simcore.json``
AND the repo root ``BENCH_simcore.json``, and — when
``REPRO_HISTORY_DIR`` is set — recorded in the run-history store so
``python -m repro.obs.history diff --figure simcore`` gates throughput
regressions in CI.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import pathlib
import time

from benchmarks.conftest import RESULTS_DIR, publish
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario
from repro.obs.layers import LayerTracer
from repro.obs.profiler import StackSampler
from repro.sim.engine import Simulator

REPO_ROOT = pathlib.Path(__file__).parent.parent

DURATION = float(os.environ.get("REPRO_BENCH_SIMCORE_DURATION", "4.0"))
SCALE = 0.2
SEED = 1

OFF_REPEATS = 3
REPLICA_REPEATS = 5
REPLICA_EVENTS = 30_000


def _scenario() -> Scenario:
    return Scenario.paper_topology(1, duration=DURATION, seed=SEED, scale=SCALE)


def _replica_sim(events: int = REPLICA_EVENTS) -> Simulator:
    sim = Simulator(seed=1)
    sink = []
    for i in range(events):
        sim.schedule(i * 1e-4, sink.append, i)
    return sim


def _drain_replica(sim: Simulator, until=None) -> None:
    """The seed repo's hot loop, verbatim, over the engine internals.

    No loop selection, no sanitizer branch at all — the floor the
    engine's ``run()`` is compared against.
    """
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


def _timed_drain(drain) -> float:
    """Wall time of ``drain(sim)`` on a fresh workload: construction and
    scheduling stay outside the timed region and the collector is pinned
    during it, so the number is the loop itself."""
    sim = _replica_sim()
    gc.collect()
    gc.disable()
    began = time.perf_counter()
    drain(sim)
    elapsed = time.perf_counter() - began
    gc.enable()
    return elapsed


def _paired_best(drain_a, drain_b, repeats: int):
    """Best-of-N for two drains, measured in alternation so that CPU
    warm-up, frequency scaling, and neighbour load hit both equally
    instead of biasing whichever went first."""
    samples_a = []
    samples_b = []
    for _ in range(repeats):
        samples_a.append(_timed_drain(drain_a))
        samples_b.append(_timed_drain(drain_b))
    return min(samples_a), min(samples_b)


def test_simcore_throughput():
    # -- 1. loop selection cost: seed-loop replica vs run() -----------
    # Measured first, on a fresh heap: a large live object graph (the
    # scenario runs below retain one) adds several percent of noise to
    # these few-ms loop timings.
    replica_wall, engine_wall = _paired_best(
        _drain_replica, lambda sim: sim.run(), REPLICA_REPEATS
    )
    off_overhead_pct = (engine_wall / replica_wall - 1.0) * 100.0
    # Wall-clock noise makes a tight bound flaky in CI; the honest
    # number is published below, this only guards against a blowup.
    assert engine_wall <= replica_wall * 1.25

    # -- 2. headline: the plain loop, best of several full runs --------
    best_off = None
    for _ in range(OFF_REPEATS):
        result = run_scenario(_scenario())
        if best_off is None or result.wall_seconds < best_off.wall_seconds:
            best_off = result
    events_off = best_off.sim.events_executed
    wall_off = best_off.wall_seconds
    events_per_sec = events_off / wall_off if wall_off > 0 else 0.0

    # -- 3. traced: the same scenario under the layer tracer ----------
    sampler = StackSampler(interval=0.002)
    sampler.start()
    try:
        with LayerTracer() as tracer:
            traced = run_scenario(_scenario())
    finally:
        sampler.stop()
    report = tracer.report()
    layers = report["layers"]
    loop_s = layers["sim.loop"]["total_s"]
    # Σ self over the traced wall: the share of the traced window the
    # layer table explains.
    coverage = sum(row["self_s"] for row in layers.values()) / report["wall_seconds"]

    # The tracer must not change what the simulation does…
    assert traced.sim.events_executed == events_off
    assert report["events"] == events_off
    # …and its layer self times must explain the traced wall.
    assert coverage >= 0.9

    from repro.obs.history import host_metadata

    document = {
        "benchmark": "simcore_throughput",
        "host": host_metadata(),
        "scenario": {
            "topology": 1,
            "duration": DURATION,
            "seed": SEED,
            "scale": SCALE,
            "schemes": ["tactic"],
        },
        "events_executed": events_off,
        "wall_seconds_off": round(wall_off, 4),
        "events_per_sec": round(events_per_sec, 1),
        "events_per_sec_traced": round(events_off / loop_s, 1),
        "tracer_overhead_pct": round((loop_s / wall_off - 1.0) * 100.0, 1)
        if wall_off > 0
        else 0.0,
        "off_overhead_pct": round(off_overhead_pct, 2),
        "phase_coverage": round(coverage, 4),
        "layers": {
            name: {
                "calls": row["calls"],
                "total_s": round(row["total_s"], 4),
                "self_s": round(row["self_s"], 4),
                "self_share": round(row["self_s"] / report["wall_seconds"], 4),
            }
            for name, row in layers.items()
        },
        "flame_samples": sampler.samples,
    }
    blob = json.dumps(document, indent=2) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_simcore.json").write_text(blob)
    (REPO_ROOT / "BENCH_simcore.json").write_text(blob)
    if sampler.collapsed:
        sampler.write_collapsed(str(RESULTS_DIR / "flame_simcore.txt"))

    # -- 4. CI gate: record the datapoint in the run-history store -----
    history_dir = os.environ.get("REPRO_HISTORY_DIR")
    if history_dir:
        from repro.obs.history import RunHistory

        RunHistory(history_dir).append_benchmark(
            "simcore",
            label="paper-topo1",
            metrics={
                "events_per_sec": round(events_per_sec, 1),
                "events_executed": events_off,
                "phase_coverage": round(coverage, 4),
            },
            wall_seconds=wall_off,
        )

    publish(
        "simcore_throughput",
        "\n".join(
            [
                f"sim-core throughput — paper topology 1, "
                f"{DURATION:g}s virtual @ scale {SCALE:g}",
                f"  events executed        {events_off:>12,}",
                f"  events/sec (off)       {events_per_sec:>12,.0f}",
                f"  events/sec (traced)    {events_off / loop_s:>12,.0f}",
                f"  run() vs seed loop     {off_overhead_pct:>11.2f}%",
                f"  layer coverage         {coverage:>11.1%}",
                "",
                tracer.render(),
            ]
        ),
    )
