"""Per-run telemetry sessions: the glue between flags and instruments.

``python -m repro`` translates its ``--metrics-out`` / ``--trace-out``
/ ``--sample-interval`` / ``--profile`` / ``--heartbeat`` flags into one
:class:`TelemetryConfig` and installs it as the process default via
:func:`set_default_telemetry`.  The experiment runner then attaches a
:class:`TelemetrySession` to every scenario it executes: the session
wires a fresh :class:`~repro.obs.metrics.MetricsRegistry`, a trace
recorder over the known substrate events *plus* the ``span.*``
lifecycle events, a periodic sampler, the per-layer tracer
(:class:`~repro.obs.layers.LayerTracer`) and a wall-clock heartbeat —
whichever subset the config enables — and, at :meth:`~TelemetrySession.
finalize`, bridges the run's router :class:`~repro.core.metrics.
OpCounters` and user totals into labeled counters before persisting.

Artifacts accumulate across the runs of one invocation:

- the metrics file is a single JSON document ``{"runs": [...]}``,
  rewritten after every run so a killed invocation still leaves a
  parseable file;
- the trace file is JSONL, one record per line, each carrying a
  ``run`` field naming the scenario it came from.

With no default config installed (the normal case), every hook in this
module is a no-op and runs behave byte-for-byte as before.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.samplers import PeriodicSampler
from repro.obs.spans import SPAN_EVENTS
from repro.sim.engine import Simulator
from repro.sim.tracing import TraceRecord

#: OpCounters fields bridged into ``tactic_router_ops_total``.
ROUTER_OPS = (
    "bf_lookups",
    "bf_inserts",
    "signature_verifications",
    "client_sig_verifications",
    "bf_resets",
    "precheck_drops",
    "access_path_drops",
    "nacks_issued",
)

#: UserStats fields bridged into ``user_outcomes_total``.
USER_OUTCOMES = (
    "chunks_requested",
    "chunks_received",
    "chunks_usable",
    "nacks_received",
    "timeouts",
    "retransmissions",
    "tags_requested",
    "tags_received",
)


@dataclass
class TelemetryConfig:
    """What to collect and where to put it; all-off by default."""

    metrics_path: Optional[str] = None
    trace_path: Optional[str] = None
    #: ``jsonl`` (one record per line) or ``chrome`` (a Chrome
    #: ``trace_event`` document for chrome://tracing / Perfetto).
    trace_format: str = "jsonl"
    sample_interval: Optional[float] = None
    #: Run under the :class:`~repro.obs.layers.LayerTracer` and report
    #: per-layer calls, total and self seconds (the ``--profile`` flag).
    profile: bool = False
    #: Collapsed-stack output path for the statistical sampler (the
    #: ``--flame-out`` flag); setting it implies sampling.
    flame_path: Optional[str] = None
    #: Sample without writing a file — collect mode uses this so worker
    #: stacks ride the telemetry envelope home.
    flame: bool = False
    #: Stack-sampling period in seconds.
    flame_interval: float = 0.005
    #: Wall-clock heartbeat period in seconds (0 = off): a daemon
    #: thread prints wall time, ``sim.now`` and events executed, so the
    #: pulse costs the event loop nothing.
    heartbeat: float = 0.0
    #: Stream for profile reports and heartbeats (None = stderr).
    stream: Optional[object] = None
    #: In-memory envelope mode: collect metrics/profile into the
    #: session's ``record`` without writing files or printing reports.
    #: Pool workers use this to ship telemetry back inside the pickled
    #: :class:`~repro.exec.summary.RunSummary`.
    collect: bool = False
    _writer: Optional["TelemetryWriter"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def enabled(self) -> bool:
        return bool(
            self.metrics_path
            or self.trace_path
            or self.sample_interval
            or self.profile
            or self.heartbeat
            or self.flame_path
            or self.flame
            or self.collect
        )

    def writer(self) -> "TelemetryWriter":
        if self._writer is None:
            self._writer = TelemetryWriter(self)
        return self._writer


class TelemetryWriter:
    """Accumulates run records and persists them incrementally."""

    def __init__(self, config: TelemetryConfig) -> None:
        self.config = config
        self.runs: List[dict] = []
        self._trace_started = False
        self._trace_runs: List[tuple] = []
        self._flame_stacks: dict = {}

    def add_run(self, record: dict) -> None:
        self.runs.append(record)
        if self.config.metrics_path:
            with open(self.config.metrics_path, "w", encoding="utf-8") as fh:
                json.dump({"runs": self.runs}, fh, indent=2)
                fh.write("\n")

    def add_flame(self, stacks: dict) -> None:
        """Merge one run's collapsed stacks and rewrite the flame file
        (counts sum across runs, the natural flamegraph aggregation)."""
        from repro.obs.profiler import merge_collapsed, write_collapsed

        merge_collapsed(self._flame_stacks, stacks)
        if self.config.flame_path:
            write_collapsed(self.config.flame_path, self._flame_stacks)

    def append_trace(
        self,
        records: Iterable[TraceRecord],
        run: str,
        state_counters: Optional[list] = None,
    ) -> int:
        """Persist one run's trace records.

        ``state_counters`` optionally carries the statescope timeline
        (``(virtual_time, {series: value})`` samples); the chrome
        format renders it as counter tracks alongside the event slices,
        the jsonl format ignores it.
        """
        if not self.config.trace_path:
            return 0
        if self.config.trace_format == "chrome":
            # Chrome's trace_event container is a single JSON document,
            # so each run rewrites the whole file (same contract as the
            # metrics document: a killed invocation stays parseable).
            from repro.obs.export import write_chrome_trace

            batch = list(records)
            self._trace_runs.append((run, batch, state_counters))
            write_chrome_trace(self.config.trace_path, self._trace_runs)
            return len(batch)
        mode = "a" if self._trace_started else "w"
        self._trace_started = True
        count = 0
        with open(self.config.trace_path, mode, encoding="utf-8") as fh:
            for record in records:
                fh.write(
                    json.dumps(
                        {
                            "event": record.name,
                            "time": record.time,
                            "run": run,
                            **record.payload,
                        }
                    )
                )
                fh.write("\n")
                count += 1
        return count


class TelemetrySession:
    """One run's worth of attached instruments."""

    def __init__(
        self,
        config: TelemetryConfig,
        sim: Simulator,
        network=None,
        collector=None,
        label: str = "",
        horizon: Optional[float] = None,
    ) -> None:
        self.config = config
        self.sim = sim
        self.collector = collector
        self.label = label
        self.registry = MetricsRegistry()
        self.recorder = None
        self.sampler = None
        self.tracer = None
        self.flame = None
        #: The finalize record (set by :meth:`finalize`); in ``collect``
        #: mode this is the whole point of the session.
        self.record: Optional[dict] = None
        #: The run's :class:`~repro.obs.audit.DecisionAudit` (attached
        #: by the runner when decision auditing is on); its tallies are
        #: bridged into ``audit_*`` metrics at finalize.
        self.audit = None
        #: The run's :class:`~repro.obs.statescope.StateScope` (attached
        #: by the runner when state accounting is on); its frozen record
        #: rides the finalize record and its timeline becomes Chrome
        #: counter tracks.
        self.statescope = None
        self._closed = False
        self._beat_stop: Optional[threading.Event] = None
        self._beat_thread: Optional[threading.Thread] = None

        if config.trace_path:
            # Imported here: experiments.tracelog sits above obs in the
            # layer order, and only trace-enabled sessions need it.
            from repro.experiments.tracelog import KNOWN_EVENTS, TraceRecorder

            self.recorder = TraceRecorder(sim, events=KNOWN_EVENTS + SPAN_EVENTS)
        if config.sample_interval:
            self.sampler = PeriodicSampler(
                sim, config.sample_interval, until=horizon, registry=self.registry
            )
            if network is not None:
                self.sampler.install_standard_probes(network)
            self.sampler.start()
        if config.profile:
            from repro.obs.layers import LayerTracer

            self.tracer = LayerTracer().__enter__()
        if config.flame or config.flame_path:
            from repro.obs.profiler import StackSampler

            self.flame = StackSampler(interval=config.flame_interval)
            self.flame.start()
        if config.heartbeat > 0:
            self._beat_stop = threading.Event()
            self._beat_thread = threading.Thread(
                target=self._heartbeat,
                args=(config.heartbeat, config.stream or sys.stderr),
                name="repro-heartbeat",
                daemon=True,
            )
            self._beat_thread.start()

    def _heartbeat(self, period: float, stream) -> None:
        """Print a liveness pulse every ``period`` wall seconds.

        Runs on its own thread and only reads the simulator's clock and
        event counter, so every run loop (``_drain``, the C kernel, the
        sanitized loop) keeps its per-event cost.
        """
        began = time.perf_counter()
        while not self._beat_stop.wait(period):
            stream.write(
                f"[obs] {time.perf_counter() - began:8.1f}s wall  "
                f"sim.now={self.sim.now:.3f}s  "
                f"{self.sim.events_executed} events\n"
            )
            stream.flush()

    def close(self) -> None:
        """Detach every instrument; idempotent.

        :meth:`finalize` calls this first, and the runner calls it when
        a run raises, so the layer shims are always restored and the
        heartbeat thread is always stopped and joined.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self.tracer is not None:
                self.tracer.__exit__(None, None, None)
            if self.flame is not None:
                self.flame.stop()
            if self.sampler is not None:
                self.sampler.stop()
            if self.recorder is not None:
                self.recorder.stop()
        finally:
            if self._beat_thread is not None:
                self._beat_stop.set()
                self._beat_thread.join()

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def _bridge_collector(self) -> None:
        """Router OpCounters and user totals become labeled counters."""
        collector = self.collector
        if collector is None:
            return
        ops = self.registry.counter(
            "tactic_router_ops_total",
            "Per-router TACTIC operation counts (Fig. 7 source data)",
            ("node", "role", "op"),
        )
        for role, counters_map in (
            ("edge", collector.edge_counters),
            ("core", collector.core_counters),
        ):
            for node_id, counters in counters_map.items():
                for op in ROUTER_OPS:
                    ops.labels(node=node_id, role=role, op=op).inc(
                        getattr(counters, op)
                    )
        outcomes = self.registry.counter(
            "user_outcomes_total",
            "Per-population user workload outcomes (Table IV source data)",
            ("population", "kind"),
        )
        latency = self.registry.histogram(
            "client_latency_seconds",
            "Content-retrieval latency of legitimate clients (Fig. 5)",
        )
        for stats in collector.users.values():
            population = "attackers" if stats.is_attacker else "clients"
            for kind in USER_OUTCOMES:
                outcomes.labels(population=population, kind=kind).inc(
                    getattr(stats, kind)
                )
            if not stats.is_attacker:
                for _, sample in stats.latency_samples:
                    latency.labels().observe(sample)

    def _bridge_audit(self) -> None:
        """Decision tallies and BF misauthorization rates become
        labeled counters/gauges (the ``p_fp`` comparison gauge the
        audit layer exists to report)."""
        audit = self.audit
        if audit is None:
            return
        summary = audit.summary()
        decisions = self.registry.counter(
            "audit_decisions_total",
            "Access-control decisions by kind/outcome and oracle label",
            ("node", "role", "kind", "outcome", "label"),
        )
        observed = self.registry.gauge(
            "audit_bf_misauth_rate",
            "Empirical BF false-positive misauthorization rate per router",
            ("node",),
        )
        expected = self.registry.gauge(
            "audit_bf_expected_rate",
            "Theoretical per-router BF false-positive rate (mean p_fp)",
            ("node",),
        )
        for node_id, node in summary["nodes"].items():
            for key, count in node["decisions"].items():
                kind, outcome, label = key.split("|")
                decisions.labels(
                    node=node_id,
                    role=node["role"],
                    kind=kind,
                    outcome=outcome,
                    label=label,
                ).inc(count)
            lookups = node["bf_negative_lookups"]
            if lookups:
                observed.labels(node=node_id).set(
                    node["bf_false_positives"] / lookups
                )
                expected.labels(node=node_id).set(
                    node["expected_fp_sum"] / lookups
                )

    def finalize(self, wall_seconds: float = 0.0) -> dict:
        """Detach instruments, bridge counters, persist, return the record."""
        self.close()
        self._bridge_collector()
        self._bridge_audit()
        record = {
            "label": self.label,
            "wall_seconds": wall_seconds,
            "virtual_seconds": self.sim.now,
            "events_executed": self.sim.events_executed,
            "metrics": self.registry.snapshot(),
            "samples": self.sampler.series_dict() if self.sampler else [],
            "profile": self.tracer.report() if self.tracer else None,
            "flame": self.flame.report() if self.flame else None,
            "statescope": (
                self.statescope.record() if self.statescope is not None else None
            ),
        }
        self.record = record
        if self.config.collect:
            # Envelope mode: the caller ships ``record`` home inside the
            # RunSummary; no files, no stderr reports from workers.
            return record
        writer = self.config.writer()
        writer.add_run(record)
        if self.recorder is not None:
            writer.append_trace(
                self.recorder.records,
                run=self.label,
                state_counters=(
                    self.statescope.timeline if self.statescope is not None else None
                ),
            )
        if self.flame is not None and self.config.flame_path:
            writer.add_flame(self.flame.collapsed)
        if self.tracer is not None:
            stream = self.config.stream or sys.stderr
            header = f"── profile: {self.label or 'run'} ──"
            stream.write(header + "\n" + self.tracer.render() + "\n")
        return record


# ----------------------------------------------------------------------
# Process-wide default (installed by the CLI, read by the runner)
# ----------------------------------------------------------------------
_default_config: Optional[TelemetryConfig] = None


def set_default_telemetry(config: Optional[TelemetryConfig]) -> None:
    """Install (or clear, with None) the process-default config."""
    global _default_config
    _default_config = config


def current_telemetry() -> Optional[TelemetryConfig]:
    """The process-default config, or None when telemetry is off."""
    return _default_config
