"""Bench: the repro.exec engine — fan-out speedup and cache round-trip.

A fig5-style sweep (2 topologies x 2 seeds) runs three ways: serial
in-process (``jobs=1``), fanned out over a spawn pool (``jobs=4`` by
default; override with ``REPRO_BENCH_JOBS``), and replayed from a
content-addressed run cache, every run under the ``simsan`` row.  The
benchmark asserts the engine's correctness bar unconditionally — every
execution mode produces bit-identical figure values and SimSan event
digests — and publishes
``BENCH_parallel.json`` with the wall-clock numbers.  Where the pool's
time goes is perfbench's ``table5_grid`` ``exec.*`` ledger
(docs/PERFORMANCE.md, "Where parallel time goes").

The >=2x speedup assertion is gated on the host actually having >=4
cores: a single-core CI runner pays the spawn overhead without any
parallelism to show for it, which says nothing about the engine.  The
wall-clock numbers are published, not gated: the CI timing gate is
``benchmarks/perf_gate.py`` (docs/PERFORMANCE.md, "The CI throughput
gate"), and perfbench's ``table5_grid`` reports the pool's efficiency.
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.conftest import RESULTS_DIR, publish
from repro.exec import ExperimentEngine
from repro.experiments.fig5_latency import enumerate_fig5
from repro.experiments.report import render_table

#: Scaled so the whole tri-modal comparison stays CI-sized; see each
#: figure module's docstring for the paper-scale parameters.
TOPOLOGIES = (1, 2)
SEEDS = (1, 2)
DURATION = float(os.environ.get("REPRO_BENCH_DURATION", "6.0"))
SCALE = 0.2
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "4"))


def _sweep_specs():
    return [
        spec
        for seed in SEEDS
        for spec in enumerate_fig5(
            topologies=TOPOLOGIES,
            bf_sizes=(12,),
            duration=DURATION,
            seed=seed,
            scale=SCALE,
        )
    ]


def _timed_run(specs, **kwargs):
    engine = ExperimentEngine(obs=("simsan",), **kwargs)
    began = time.perf_counter()
    summaries = engine.run_specs(specs)
    return time.perf_counter() - began, summaries


def test_parallel_matches_serial_and_speeds_up(tmp_path):
    specs = _sweep_specs()

    serial_wall, serial = _timed_run(specs, jobs=1, use_cache=False)
    parallel_wall, parallel = _timed_run(specs, jobs=JOBS, use_cache=False)
    prime_wall, primed = _timed_run(specs, jobs=1, cache_dir=tmp_path)
    cached_wall, cached = _timed_run(specs, jobs=1, cache_dir=tmp_path)

    # The correctness bar: bit-identical values in every mode.
    baseline = [s.metrics_dict() for s in serial]
    assert [p.metrics_dict() for p in parallel] == baseline
    assert [p.metrics_dict() for p in primed] == baseline
    assert [c.metrics_dict() for c in cached] == baseline
    def digests(summaries):
        return [s.instruments["simsan"]["digest"] for s in summaries]

    assert len(set(digests(serial))) == len(specs)
    assert digests(parallel) == digests(primed) == digests(cached) == digests(serial)
    assert all(c.cached for c in cached) and not any(p.cached for p in primed)

    cores = os.cpu_count() or 1
    speedup = serial_wall / parallel_wall if parallel_wall else float("inf")
    cache_speedup = serial_wall / cached_wall if cached_wall else float("inf")

    from repro.obs.history import host_metadata

    report = {
        "host": host_metadata(),
        "sweep": {
            "topologies": list(TOPOLOGIES),
            "seeds": list(SEEDS),
            "duration": DURATION,
            "scale": SCALE,
            "runs": len(specs),
        },
        "jobs": JOBS,
        "pool": {
            "start_method": "spawn",
            "chunksize": 1,
            "workers": min(JOBS, len(specs)),
        },
        "serial_wall_seconds": round(serial_wall, 4),
        "parallel_wall_seconds": round(parallel_wall, 4),
        "cache_prime_wall_seconds": round(prime_wall, 4),
        "cache_replay_wall_seconds": round(cached_wall, 4),
        "parallel_speedup": round(speedup, 3),
        "cache_speedup": round(cache_speedup, 3),
        "bit_identical": True,
        "simsan_digests": digests(serial),
        "speedup_asserted": cores >= 4 and JOBS >= 4,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    document = json.dumps(report, indent=2) + "\n"
    (RESULTS_DIR / "BENCH_parallel.json").write_text(document)
    # Also published at the repo root, next to BENCH_memory.json.
    (RESULTS_DIR.parent.parent / "BENCH_parallel.json").write_text(document)
    publish(
        "parallel_speedup",
        render_table(
            ["mode", "wall (s)", "vs serial"],
            [
                ["serial (jobs=1)", round(serial_wall, 3), "1.00x"],
                [f"parallel (jobs={JOBS})", round(parallel_wall, 3),
                 f"{speedup:.2f}x"],
                ["cache replay", round(cached_wall, 4), f"{cache_speedup:.0f}x"],
            ],
            title=f"repro.exec engine — {len(specs)}-run fig5-style sweep "
                  f"({cores} host cores)",
        ),
    )

    # Cache replay skips execution entirely; it must crush serial even
    # on one core.
    assert cached_wall < serial_wall / 5
    if report["speedup_asserted"]:
        assert speedup >= 2.0, (
            f"jobs={JOBS} on {cores} cores: expected >=2x over serial, "
            f"got {speedup:.2f}x"
        )
