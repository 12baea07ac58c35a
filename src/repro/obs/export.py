"""Chrome ``trace_event`` export for span and substrate traces.

The ``trace`` row's JSONL files (``<obs-out>/trace/*.jsonl``) are the
archival format: one record per line, lossless, greppable.  This module
renders the same records into the Chrome trace-event JSON that
``chrome://tracing`` and Perfetto load directly (the row's fleet
report, ``<obs-out>/trace.json``, one process per run):

- one *process* per run (``pid`` = run index, named via ``process_name``
  metadata), one *thread track* per simulated node (``thread_name``);
- every ended Interest span becomes a complete ("X") slice on its
  client's track, ``args`` carrying the outcome and the
  :meth:`~repro.obs.spans.Span.decompose` latency split;
- the span's per-hop segments (queue/tx/prop/compute) nest inside it as
  child slices on the same track, clipped to the parent so the viewer's
  containment invariant holds;
- marks (serve, pit.wait, drop) and substrate records (rx/tx, cs.hit,
  pit events, link drops) render as instant ("i") events on the track
  of the node that emitted them;
- access denials get their own categories so they stand out on the
  timeline: NACK deliveries (``node.*.nack``, or Data carrying an
  attached NACK) render under ``cat: "nack"`` with the denial
  ``reason`` in ``args``, and ``audit.decision`` records render under
  ``cat: "decision"`` with the decision kind/outcome/oracle label.

Timestamps are virtual-time seconds scaled to microseconds, the unit
the trace-event spec mandates.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.obs.spans import SpanBuilder
from repro.sim.tracing import TraceRecord

__all__ = [
    "chrome_trace_events",
    "fleet_trace_events",
    "merge_trace",
    "state_counter_events",
    "trace_report",
    "write_chrome_trace",
]

_MICROS = 1e6


def _node_tracks(spans: Iterable, substrate: Iterable[TraceRecord]) -> Dict[str, int]:
    """Stable node → tid mapping (sorted names, tids from 1)."""
    nodes = set()
    for span in spans:
        if span.node:
            nodes.add(span.node)
        for mark in span.marks:
            if mark.node:
                nodes.add(mark.node)
    for record in substrate:
        node = record.payload.get("node") or record.payload.get("src")
        if node:
            nodes.add(node)
    return {node: index + 1 for index, node in enumerate(sorted(nodes))}


def chrome_trace_events(
    records: Sequence[TraceRecord], pid: int = 1, run: str = ""
) -> List[dict]:
    """Render one run's trace records as Chrome trace-event dicts."""
    builder = SpanBuilder()
    substrate: List[TraceRecord] = []
    for record in records:
        if record.name.startswith("span."):
            builder.add(record)
        else:
            substrate.append(record)

    spans = [
        builder.spans[span_id]
        for span_id in sorted(builder.spans)
        if builder.spans[span_id].start_time is not None
    ]
    tids = _node_tracks(spans, substrate)

    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": run or f"run-{pid}"},
        }
    ]
    for node, tid in sorted(tids.items(), key=lambda item: item[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": node},
            }
        )

    for span in spans:
        tid = tids.get(span.node, 0)
        start = span.start_time
        if span.end_time is not None:
            duration = span.end_time - start
        else:
            duration = span.covered()
        events.append(
            {
                "name": span.content or f"span-{span.span_id}",
                "cat": "span",
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": start * _MICROS,
                "dur": duration * _MICROS,
                "args": {
                    "span": span.span_id,
                    "kind": span.kind,
                    "outcome": span.outcome,
                    **span.decompose(),
                },
            }
        )
        limit = start + duration
        for segment in span.segments:
            seg_start = max(segment.start, start)
            seg_end = min(segment.start + segment.duration, limit)
            if seg_end < seg_start:
                continue
            events.append(
                {
                    "name": segment.kind,
                    "cat": "hop",
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": seg_start * _MICROS,
                    "dur": (seg_end - seg_start) * _MICROS,
                    "args": {
                        "span": span.span_id,
                        "src": segment.src,
                        "dst": segment.dst,
                    },
                }
            )
        for mark in span.marks:
            events.append(
                {
                    "name": f"span.{mark.kind}",
                    "cat": "span",
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": tids.get(mark.node, tid),
                    "ts": mark.time * _MICROS,
                    "args": {"span": span.span_id, "detail": mark.detail},
                }
            )

    for record in substrate:
        node = record.payload.get("node") or record.payload.get("src") or ""
        args = dict(record.payload)
        if record.name == "audit.decision":
            category = "decision"
        elif record.name.endswith(".nack") or args.get("nack") is not None:
            category = "nack"
            args.setdefault("reason", args.get("nack"))
        else:
            category = "substrate"
        events.append(
            {
                "name": record.name,
                "cat": category,
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tids.get(node, 0),
                "ts": record.time * _MICROS,
                "args": args,
            }
        )
    return events


def state_counter_events(timeline: Sequence, pid: int = 1) -> List[dict]:
    """Render a statescope timeline as Chrome counter tracks.

    ``timeline`` is the scope's ``(virtual_time, {series: value})``
    samples.  Each sample becomes two counter ("C") events:
    ``state.bytes`` — deep bytes per component (the stacked
    memory-footprint track) — and ``state.occupancy``, the logical
    units (PIT entries/records, CS entries, BF bits set, open spans,
    pending events).
    """
    events: List[dict] = []
    for entry in timeline:
        time_s, values = entry[0], entry[1]
        bytes_args: Dict[str, float] = {}
        unit_args: Dict[str, float] = {}
        for series in sorted(values):
            if not series.startswith("state."):
                continue
            component = series[len("state."):]
            if series.endswith(".bytes"):
                if series != "state.total.bytes":
                    bytes_args[component[: -len(".bytes")]] = values[series]
            else:
                unit_args[component] = values[series]
        events.append(
            {
                "name": "state.bytes",
                "ph": "C",
                "pid": pid,
                "tid": 0,
                "ts": time_s * _MICROS,
                "args": bytes_args,
            }
        )
        events.append(
            {
                "name": "state.occupancy",
                "ph": "C",
                "pid": pid,
                "tid": 0,
                "ts": time_s * _MICROS,
                "args": unit_args,
            }
        )
    return events


#: The worker phases rendered as sequential child slices inside each
#: spec slice, in lifecycle order (dispatch/ship live between slices).
_FLEET_CHILD_PHASES = (
    "fleet.import",
    "fleet.build",
    "fleet.sim",
    "fleet.envelope",
    "fleet.pickle",
)


def fleet_trace_events(report: dict, pid: int = 1) -> List[dict]:
    """Render a fleet pool-timeline report as Chrome trace-event dicts.

    ``report`` is :meth:`repro.obs.fleetperf.FleetPerf.report` output.
    One *thread lane per worker pid* carries a complete ("X") slice per
    spec (``started → finished`` on the pool clock, ``args`` holding the
    slot, envelope bytes, and submit/receive stamps) with the worker's
    lifecycle phases synthesized as sequential child slices inside it —
    the viewer shows import/build/sim/envelope/pickle nested under the
    spec.  A ``fleet.occupancy`` counter ("C") track plots busy workers
    and queue depth from the report's occupancy samples.  Timestamps
    are pool-relative seconds scaled to microseconds.
    """
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"fleet pool (jobs={report.get('jobs', 1)})"},
        }
    ]
    timeline = report.get("timeline") or []
    lanes = sorted({entry.get("worker_pid", 0) for entry in timeline})
    tids = {worker: index + 1 for index, worker in enumerate(lanes)}
    for worker, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"worker {worker}"},
            }
        )
    for entry in timeline:
        started = entry.get("started")
        finished = entry.get("finished")
        if started is None or finished is None:
            continue
        tid = tids.get(entry.get("worker_pid", 0), 0)
        events.append(
            {
                "name": entry.get("label") or f"slot-{entry.get('slot')}",
                "cat": "fleet.spec",
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": started * _MICROS,
                "dur": (finished - started) * _MICROS,
                "args": {
                    "slot": entry.get("slot"),
                    "worker_pid": entry.get("worker_pid"),
                    "submitted": entry.get("submitted"),
                    "received": entry.get("received"),
                    "envelope_bytes": entry.get("envelope_bytes", 0),
                },
            }
        )
        # The worker record carries phase totals, not stamps; lay the
        # phases out back to back from the slice start (their lifecycle
        # order), clipped to the parent so containment holds.
        cursor = started
        phases = entry.get("phases") or {}
        for name in _FLEET_CHILD_PHASES:
            seconds = (phases.get(name) or {}).get("seconds", 0.0)
            if seconds <= 0.0:
                continue
            end = min(cursor + seconds, finished)
            if end <= cursor:
                break
            events.append(
                {
                    "name": name,
                    "cat": "fleet.phase",
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": cursor * _MICROS,
                    "dur": (end - cursor) * _MICROS,
                    "args": {"slot": entry.get("slot")},
                }
            )
            cursor = end
    for sample in report.get("occupancy") or []:
        when, busy, queued = sample[0], sample[1], sample[2]
        events.append(
            {
                "name": "fleet.occupancy",
                "ph": "C",
                "pid": pid,
                "tid": 0,
                "ts": when * _MICROS,
                "args": {"busy": busy, "queued": queued},
            }
        )
    return events


def write_chrome_trace(
    path: str, runs: Sequence[Tuple[str, Sequence[TraceRecord]]]
) -> int:
    """Write a Chrome trace document covering ``runs`` (one pid each).

    ``runs`` is ``[(run_label, records), ...]`` — or, with statescope
    attached, ``[(run_label, records, state_timeline), ...]`` where the
    optional third element (may be None) renders as counter tracks via
    :func:`state_counter_events`.  Returns the event count.
    The whole document is rewritten on every call — trace-event JSON
    has no append form — so partial invocations stay loadable.
    """
    events: List[dict] = []
    for index, entry in enumerate(runs):
        run, records = entry[0], entry[1]
        state_counters = entry[2] if len(entry) > 2 else None
        events.extend(chrome_trace_events(records, pid=index + 1, run=run))
        if state_counters:
            events.extend(state_counter_events(state_counters, pid=index + 1))
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
        fh.write("\n")
    return len(events)


def merge_trace(into: Dict[str, Any], record: Dict[str, Any]) -> Dict[str, Any]:
    """Fold one run's trace into the fleet view: read its JSONL file
    back and append its Chrome events as the next process (runs are
    folded in submission order, so pids follow it), with the
    statescope timeline as counter tracks when the record carries one."""
    from repro.experiments.tracelog import read_jsonl

    path = record["path"]
    pid = into.get("runs", 0) + 1
    into["runs"] = pid
    into.setdefault("files", []).append(os.path.basename(path))
    events = into.setdefault("traceEvents", [])
    events.extend(chrome_trace_events(read_jsonl(path), pid=pid, run=record["label"]))
    if record.get("state"):
        events.extend(state_counter_events(record["state"], pid=pid))
    return into


def trace_report(merged: Dict[str, Any], figure: str, jobs: int) -> Dict[str, Any]:
    """``<obs-out>/trace.json``: the fleet's Chrome trace document."""
    return {"traceEvents": merged.get("traceEvents", []), "displayTimeUnit": "ms"}
