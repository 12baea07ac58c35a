"""Unified observability layer for the TACTIC simulator.

One package gathers everything a run can tell you about itself:

- :mod:`repro.obs.metrics` — a labeled metrics registry (counters,
  gauges, histograms) with JSON and Prometheus-text exporters;
- :mod:`repro.obs.spans` — Interest-lifecycle spans reconstructed from
  ``span.*`` trace events, decomposing per-request latency into
  queue / serialization / propagation / compute segments;
- :mod:`repro.obs.samplers` — periodic virtual-time sampling of live
  state (PIT occupancy, CS hit ratio, Bloom-filter fill, link queues,
  pending events);
- :mod:`repro.obs.profiler` — a wall-clock profiler for the event loop
  (events/sec, per-callback-category time, heap high-water mark) plus
  a statistical stack sampler emitting collapsed-stack flamegraph
  input;
- :mod:`repro.obs.perf` — the hot-path performance observatory:
  nestable phase accounting over the engine and the NDN fast path
  (heap ops, dispatch, PIT/CS/Bloom/link/crypto), the source of
  ``BENCH_simcore.json``'s per-phase breakdown;
- :mod:`repro.obs.session` — the glue: one
  :class:`~repro.obs.session.TelemetrySession` per run, attached by the
  experiment runner and driven by ``python -m repro`` flags;
- :mod:`repro.obs.audit` — access-control decision records with a
  ground-truth oracle labeling each one correct / false-positive /
  false-negative (the empirical BF-misauthorization report);
- :mod:`repro.obs.flightrec` — a bounded ring of recent events that
  dumps a post-mortem bundle on SimSan violations, NACK storms, or on
  demand;
- :mod:`repro.obs.statescope` — the state-footprint observatory:
  periodic deep-byte accounting over every stateful structure (PIT,
  CS, Bloom filters, FIB, audit shadows, spans, event heap), linear
  trend fitting that flags unbounded growth, and conformance checks
  comparing empirical occupancy against the ``repro.analysis`` closed
  forms.

Everything is off by default; an unconfigured run pays nothing beyond
a handful of ``None`` checks.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.obs.audit import DECISION_KINDS, DecisionAudit, DecisionRecord
    from repro.obs.fleetperf import (
        FLEETPERF_PHASES,
        FleetPerf,
        WorkerLifecycle,
        attribute_speedup,
        merge_fleetperf,
    )
    from repro.obs.flightrec import FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.perf import PERF_PHASES, PerfObservatory, merge_perf_reports
    from repro.obs.profiler import SimProfiler, StackSampler, merge_collapsed
    from repro.obs.samplers import PeriodicSampler
    from repro.obs.session import (
        TelemetryConfig,
        TelemetrySession,
        current_telemetry,
        set_default_telemetry,
    )
    from repro.obs.spans import SPAN_EVENTS, Span, SpanBuilder, SpanRecorder
    from repro.obs.statescope import (
        STATESCOPE_SERIES,
        StateScope,
        deep_sizeof,
        merge_statescope,
        statescope_metrics,
    )

#: Re-export -> defining module.  Every submodule is imported on first
#: access (PEP 562): a run that attaches one instrument loads only that
#: one, and the ``python -m`` CLIs of perf / fleetperf / statescope run
#: without runpy's already-in-sys.modules warning.
_EXPORTS = {
    "DECISION_KINDS": "audit",
    "DecisionAudit": "audit",
    "DecisionRecord": "audit",
    "FLEETPERF_PHASES": "fleetperf",
    "FleetPerf": "fleetperf",
    "WorkerLifecycle": "fleetperf",
    "attribute_speedup": "fleetperf",
    "merge_fleetperf": "fleetperf",
    "FlightRecorder": "flightrec",
    "MetricsRegistry": "metrics",
    "PERF_PHASES": "perf",
    "PerfObservatory": "perf",
    "merge_perf_reports": "perf",
    "SimProfiler": "profiler",
    "StackSampler": "profiler",
    "merge_collapsed": "profiler",
    "PeriodicSampler": "samplers",
    "TelemetryConfig": "session",
    "TelemetrySession": "session",
    "current_telemetry": "session",
    "set_default_telemetry": "session",
    "SPAN_EVENTS": "spans",
    "Span": "spans",
    "SpanBuilder": "spans",
    "SpanRecorder": "spans",
    "STATESCOPE_SERIES": "statescope",
    "StateScope": "statescope",
    "deep_sizeof": "statescope",
    "merge_statescope": "statescope",
    "statescope_metrics": "statescope",
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = list(_EXPORTS)
