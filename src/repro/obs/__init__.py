"""Unified observability layer for the TACTIC simulator.

One package gathers everything a run can tell you about itself:

- :mod:`repro.obs.spans` — Interest-lifecycle spans reconstructed from
  ``span.*`` trace events, decomposing per-request latency into
  queue / serialization / propagation / compute segments;
- :mod:`repro.obs.samplers` — periodic virtual-time sampling of live
  state (PIT occupancy, CS hit ratio, Bloom-filter fill, link queues,
  pending events);
- :mod:`repro.obs.layers` — the per-layer tracer (the ``profile`` row):
  call-through shims over the public entry points of every layer
  (event loop, NDN forwarding, TACTIC enforcement, crypto, engine)
  with exact per-layer self times, the same table as perfbench's
  traced run;
- :mod:`repro.obs.profiler` — a statistical stack sampler emitting
  collapsed-stack flamegraph input, and the wall-clock heartbeat;
- :mod:`repro.obs.session` — the ``telemetry`` row: one
  :class:`~repro.obs.session.TelemetrySession` per run reading the
  run's router operations, user outcomes and client-latency buckets
  into plain dicts;
- :mod:`repro.obs.audit` — access-control decision records with a
  ground-truth oracle labeling each one correct / false-positive /
  false-negative (the empirical BF-misauthorization report);
- :mod:`repro.obs.flightrec` — a bounded ring of recent events that
  dumps a post-mortem bundle on SimSan violations, NACK storms, or on
  demand;
- :mod:`repro.obs.statescope` — the state-footprint observatory:
  periodic deep-byte accounting over every stateful structure (PIT,
  CS, Bloom filters, FIB, audit shadows, event heap), linear
  trend fitting that flags unbounded growth, and conformance checks
  comparing empirical occupancy against the ``repro.analysis`` closed
  forms;
- :mod:`repro.obs.instruments` — the one table that turns every
  instrument above on (``--obs``) and carries each one's record from
  the run to its fleet report.

Everything is off by default; a plain run imports none of this and
pays nothing beyond a handful of ``None`` checks.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.obs.audit import DECISION_KINDS, DecisionAudit, DecisionRecord
    from repro.obs.flightrec import FlightRecorder
    from repro.obs.layers import ENTRY_POINTS, LayerTracer
    from repro.obs.profiler import StackSampler, merge_collapsed
    from repro.obs.samplers import PeriodicSampler
    from repro.obs.session import TelemetrySession
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
#: one, and ``python -m repro.obs.statescope`` runs without runpy's
#: already-in-sys.modules warning.
_EXPORTS = {
    "DECISION_KINDS": "audit",
    "DecisionAudit": "audit",
    "DecisionRecord": "audit",
    "FlightRecorder": "flightrec",
    "ENTRY_POINTS": "layers",
    "LayerTracer": "layers",
    "StackSampler": "profiler",
    "merge_collapsed": "profiler",
    "PeriodicSampler": "samplers",
    "TelemetrySession": "session",
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
