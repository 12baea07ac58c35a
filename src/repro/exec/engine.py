"""The parallel experiment engine.

Every experiment driver follows the same shape now: **enumerate** the
scenario points as picklable :class:`~repro.exec.spec.ScenarioSpec`
objects, hand the list to :func:`run_specs`, and **reduce** the
returned :class:`~repro.exec.summary.RunSummary` list into figure/table
rows.  The engine owns everything in between:

- **Cache probe** — each spec is content-addressed (see
  :mod:`repro.exec.cache`); hits are returned without executing.
- **Fan-out** — cache misses run on a spawn-context
  ``multiprocessing`` pool when ``jobs > 1``; each worker rebuilds its
  scenario from the spec and returns a compact summary, never a live
  ``RunResult``.  Spawn (not fork) keeps workers free of inherited
  interpreter state, so a worker run is bit-identical to an in-process
  run of the same seed.
- **Telemetry** — per-run wall clock, run counts by execution mode, and
  cache hit/miss counters land in a
  :class:`~repro.obs.metrics.MetricsRegistry` (the module-default one,
  or any registry passed in).

Job-count resolution: an explicit ``jobs`` argument wins, then the
``REPRO_JOBS`` environment variable, then 1 (serial).  Serial runs
execute in-process, so process-default telemetry
(:func:`repro.obs.session.set_default_telemetry`) still attaches.

**Worker telemetry round-trip** (docs/OBSERVABILITY.md, "Fleet
observability"): with fleet telemetry on — explicit
``collect_telemetry=True``, ``REPRO_FLEET_TELEMETRY=1``, or
automatically whenever a process-default telemetry config is installed
— every run (worker or in-process) attaches a
:class:`~repro.obs.session.TelemetrySession` and ships its finalize
record home inside the pickled :class:`RunSummary` (``.telemetry``).
The parent merges each envelope's metrics snapshot, in submission
order, into :attr:`ExperimentEngine.fleet_registry` via
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`; the run
cache stores the envelope too, so cache hits replay the same telemetry
without re-executing.  :meth:`ExperimentEngine.merged_snapshot` is the
fleet registry folded together with the engine's own exec counters.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exec.cache import RunCache, cache_key
from repro.exec.spec import ScenarioSpec
from repro.exec.summary import RunSummary, summarize
from repro.obs.audit import AUDIT_ENV, AUDIT_OUT_ENV
from repro.obs.metrics import MetricsRegistry
from repro.obs.statescope import STATESCOPE_ENV, STATESCOPE_OUT_ENV

__all__ = ["ExecStats", "ExperimentEngine", "resolve_jobs", "run_specs"]

#: Environment knobs (documented in docs/PERFORMANCE.md).
JOBS_ENV = "REPRO_JOBS"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
FLEET_TELEMETRY_ENV = "REPRO_FLEET_TELEMETRY"
PROGRESS_ENV = "REPRO_PROGRESS"
ENGINE_EVENTS_ENV = "REPRO_ENGINE_EVENTS"
FLEET_METRICS_ENV = "REPRO_FLEET_METRICS"
FLEETPERF_ENV = "REPRO_FLEETPERF"
FLEET_TRACE_ENV = "REPRO_FLEET_TRACE"

#: Worker-birth stamp for the fleet observatory.  A spawn-context
#: worker imports this module while the pool boots, so in a worker this
#: is "interpreter up, engine imported" on the shared monotonic clock;
#: the parent derives spawn + import cost as this stamp minus its
#: pool-open stamp (see :mod:`repro.obs.fleetperf`).
_MODULE_IMPORTED_AT = time.perf_counter()

#: Histogram buckets for per-run wall clock (seconds); runs range from
#: sub-second CI points to minutes-long paper-scale sweeps.
WALL_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)

_default_registry: Optional[MetricsRegistry] = None


def default_registry() -> MetricsRegistry:
    """The process-wide registry engine instances record into."""
    global _default_registry
    if _default_registry is None:
        _default_registry = MetricsRegistry()
    return _default_registry


def _env_flag(name: str) -> Optional[bool]:
    """Tri-state env flag: unset = None, else truthy unless 0/false/no/off."""
    raw = os.environ.get(name, "").strip().lower()
    if not raw:
        return None
    return raw not in ("0", "false", "no", "off")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Explicit argument > ``REPRO_JOBS`` env > 1 (serial)."""
    if jobs is not None:
        return max(1, int(jobs))
    raw = os.environ.get(JOBS_ENV, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return 1


def _execute_spec(
    spec: ScenarioSpec,
    telemetry_args: Optional[Dict[str, Any]] = None,
    audit: bool = False,
    fleetperf: bool = False,
    statescope: bool = False,
) -> RunSummary:
    """Run one spec end to end (the worker entry point).

    Top-level so it pickles under the spawn start method.  Imports stay
    inside the function: a freshly spawned interpreter only pays for
    the simulator once it actually runs something.

    ``telemetry_args`` (``{"profile": bool, "sample_interval": float,
    "flame": bool}``)
    asks for the fleet telemetry round-trip: the run attaches a
    session and its finalize record travels home in
    ``summary.telemetry``.  In-process runs reuse the process-default
    config when one is installed (so files/streams keep accumulating);
    workers — where no default exists — build a collect-mode config
    that touches no files.

    ``audit`` asks for the decision-audit round-trip: the run attaches
    a :class:`~repro.obs.audit.DecisionAudit` and its summary travels
    home in ``summary.audit`` the same way.

    ``fleetperf`` asks for the worker-lifecycle round-trip: a
    :class:`~repro.obs.fleetperf.WorkerLifecycle` charges the
    simulator-stack import, scenario build, sim run, envelope build,
    and envelope pickle to fleet phases, and its record travels home in
    ``summary.fleetperf`` the same way.

    ``statescope`` asks for the state-accounting round-trip: the run
    attaches a :class:`~repro.obs.statescope.StateScope` and its frozen
    record travels home in ``summary.statescope`` the same way.
    """
    lifecycle = None
    if fleetperf:
        from repro.obs.fleetperf import WorkerLifecycle

        lifecycle = WorkerLifecycle(_MODULE_IMPORTED_AT)

    mark = time.perf_counter()
    from repro.experiments.runner import run_scenario

    if lifecycle is not None:
        lifecycle.charge("fleet.import", time.perf_counter() - mark)

    began = time.perf_counter()
    scenario = spec.build()
    if lifecycle is not None:
        lifecycle.charge("fleet.build", time.perf_counter() - began)
    sanitizer = None
    if spec.hash_events:
        from repro.qa.simsan import SimSan

        sanitizer = SimSan(mode="collect", hash_events=True)

    telemetry = None
    if telemetry_args is not None:
        from repro.obs.session import TelemetryConfig, current_telemetry

        telemetry = current_telemetry()
        if telemetry is None or not telemetry.enabled():
            telemetry = TelemetryConfig(
                collect=True,
                profile=bool(telemetry_args.get("profile", False)),
                sample_interval=telemetry_args.get("sample_interval"),
                flame=bool(telemetry_args.get("flame", False)),
            )

    auditor = None
    if audit:
        from repro.obs.audit import DecisionAudit

        auditor = DecisionAudit()

    scope = None
    if statescope:
        from repro.obs.statescope import StateScope

        scope = StateScope()

    mark = time.perf_counter()
    result = run_scenario(
        scenario,
        telemetry=telemetry,
        sanitizer=sanitizer,
        audit=auditor,
        statescope=scope,
    )
    if lifecycle is not None:
        lifecycle.charge("fleet.sim", time.perf_counter() - mark)
    mark = time.perf_counter()
    digest = sanitizer.stream_digest() if sanitizer is not None else None
    summary = summarize(
        result, latency_bucket=spec.latency_bucket, event_digest=digest
    )
    if result.telemetry is not None:
        summary.telemetry = result.telemetry.record
    if result.audit is not None:
        summary.audit = result.audit.summary()
    if result.statescope is not None:
        summary.statescope = result.statescope.record()
    summary.wall_seconds = time.perf_counter() - began
    summary.worker_pid = os.getpid()
    if lifecycle is not None:
        lifecycle.charge("fleet.envelope", time.perf_counter() - mark)
        # Finalize with ``summary.fleetperf`` still None so the byte
        # count describes what the pool pipe actually carries.
        summary.fleetperf = lifecycle.finalize(summary)
    return summary


def _execute_indexed(
    payload: Tuple[int, ScenarioSpec, Optional[Dict[str, Any]], bool, bool, bool]
) -> Tuple[int, RunSummary]:
    """Pool adapter: tags each result with its pending-list slot so the
    completion queue (``imap_unordered``) can restore submission order."""
    slot, spec, telemetry_args, audit, fleetperf, statescope = payload
    return slot, _execute_spec(spec, telemetry_args, audit, fleetperf, statescope)


@dataclass
class ExecStats:
    """Plain counters mirroring the engine's registry metrics."""

    serial_runs: int = 0
    parallel_runs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    worker_wall_total: float = 0.0
    per_run_wall: List[float] = field(default_factory=list)


class ExperimentEngine:
    """Submit/reduce executor for scenario specs.

    Parameters
    ----------
    jobs:
        Worker process count (``None`` = ``REPRO_JOBS`` env, else 1).
    cache_dir:
        Run-cache directory (``None`` = ``REPRO_CACHE_DIR`` env, else
        no cache).
    use_cache:
        ``False`` disables the cache even when a directory is known
        (the CLI's ``--no-cache``).
    registry:
        Metrics registry to record into (``None`` = the module default).
    collect_telemetry:
        Worker telemetry round-trip: ``True``/``False`` explicit,
        ``None`` = ``REPRO_FLEET_TELEMETRY`` env, else on automatically
        whenever a process-default telemetry config is installed.
    progress:
        Live status line on stderr (``None`` = ``REPRO_PROGRESS`` env,
        else off).
    events_path:
        Append ``fleet.*`` events here as JSON lines (``None`` =
        ``REPRO_ENGINE_EVENTS`` env, else off).
    history_dir:
        Append a run-history entry per :meth:`run_specs` call (``None``
        = ``REPRO_HISTORY_DIR`` env, else off).
    fleet_metrics_path:
        Write :meth:`merged_snapshot` as JSON after every
        :meth:`run_specs` call (``None`` = ``REPRO_FLEET_METRICS`` env,
        else off).
    audit:
        Decision-audit round-trip: ``True``/``False`` explicit,
        ``None`` = ``REPRO_AUDIT`` env, else on automatically whenever
        ``audit_out`` is set.  Per-run summaries ride home in
        ``summary.audit`` (cache hits replay them) and fold into
        :attr:`fleet_audit` in submission order — bit-identical between
        serial and parallel execution.
    audit_out:
        Write the fleet-merged audit report (summary + binomial-CI
        check + rendered text) as JSON after every :meth:`run_specs`
        call (``None`` = ``REPRO_AUDIT_OUT`` env, else off).
    fleetperf:
        Fleet scheduling observatory (worker-lifecycle phases + pool
        timeline; :mod:`repro.obs.fleetperf`): ``True``/``False``
        explicit, ``None`` = ``REPRO_FLEETPERF`` env, else on
        automatically whenever ``fleet_trace`` is set.  Per-run
        lifecycle records ride home in ``summary.fleetperf`` (cache
        hits replay them), fold into :attr:`fleet_fleetperf` in
        submission order, and the pool-timeline report lands in
        :attr:`last_fleetperf` after each :meth:`run_specs` call.
    fleet_trace:
        Write the pool timeline as a Chrome trace (one lane per
        worker, spec slices + occupancy counter) after every
        :meth:`run_specs` call (``None`` = ``REPRO_FLEET_TRACE`` env,
        else off).  Implies ``fleetperf``.
    statescope:
        State-accounting round-trip (:mod:`repro.obs.statescope`):
        ``True``/``False`` explicit, ``None`` = ``REPRO_STATESCOPE``
        env, else on automatically whenever ``statescope_out`` is set.
        Per-run records ride home in ``summary.statescope`` (cache
        hits replay them) and fold into :attr:`fleet_statescope` in
        submission order — bit-identical between serial and parallel
        execution.
    statescope_out:
        Write the fleet-merged statescope report (merged record +
        rendered text) as JSON after every :meth:`run_specs` call
        (``None`` = ``REPRO_STATESCOPE_OUT`` env, else off).
    stream:
        Progress stream (``None`` = stderr; tests pass a StringIO).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[Any] = None,
        use_cache: bool = True,
        registry: Optional[MetricsRegistry] = None,
        collect_telemetry: Optional[bool] = None,
        progress: Optional[bool] = None,
        events_path: Optional[str] = None,
        history_dir: Optional[Any] = None,
        fleet_metrics_path: Optional[str] = None,
        audit: Optional[bool] = None,
        audit_out: Optional[str] = None,
        fleetperf: Optional[bool] = None,
        fleet_trace: Optional[str] = None,
        statescope: Optional[bool] = None,
        statescope_out: Optional[str] = None,
        stream: Optional[object] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        directory = cache_dir
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV, "").strip() or None
        self.cache: Optional[RunCache] = (
            RunCache(directory) if (use_cache and directory is not None) else None
        )
        self.registry = registry if registry is not None else default_registry()
        self.collect_telemetry = (
            collect_telemetry
            if collect_telemetry is not None
            else _env_flag(FLEET_TELEMETRY_ENV)
        )
        self.progress = (
            progress if progress is not None else bool(_env_flag(PROGRESS_ENV))
        )
        self.events_path = (
            events_path
            if events_path is not None
            else os.environ.get(ENGINE_EVENTS_ENV, "").strip() or None
        )
        if history_dir is None:
            from repro.obs.history import HISTORY_DIR_ENV

            history_dir = os.environ.get(HISTORY_DIR_ENV, "").strip() or None
        self.history_dir = history_dir
        self.fleet_metrics_path = (
            fleet_metrics_path
            if fleet_metrics_path is not None
            else os.environ.get(FLEET_METRICS_ENV, "").strip() or None
        )
        self.audit_out = (
            audit_out
            if audit_out is not None
            else os.environ.get(AUDIT_OUT_ENV, "").strip() or None
        )
        resolved_audit = audit if audit is not None else _env_flag(AUDIT_ENV)
        self.audit = (
            resolved_audit
            if resolved_audit is not None
            else self.audit_out is not None
        )
        #: Per-run audit summaries folded in submission order — the
        #: fleet-wide decision-audit view (same determinism contract as
        #: :attr:`fleet_registry`).
        self.fleet_audit: Dict[str, Any] = {}
        self.fleet_trace = (
            fleet_trace
            if fleet_trace is not None
            else os.environ.get(FLEET_TRACE_ENV, "").strip() or None
        )
        resolved_fleetperf = (
            fleetperf if fleetperf is not None else _env_flag(FLEETPERF_ENV)
        )
        self.fleetperf = (
            resolved_fleetperf
            if resolved_fleetperf is not None
            else self.fleet_trace is not None
        )
        #: Per-run worker-lifecycle records folded in submission order
        #: (phase calls/seconds and envelope bytes sum; see
        #: :func:`repro.obs.fleetperf.merge_fleetperf`) — the
        #: fleet-wide lifecycle view, cache hits included.
        self.fleet_fleetperf: Dict[str, Any] = {}
        #: The pool-timeline report from the most recent
        #: :meth:`run_specs` call (``None`` until one runs with the
        #: observatory on) — feeds
        #: :func:`repro.obs.fleetperf.attribute_speedup` and the
        #: Chrome-trace export.
        self.last_fleetperf: Optional[Dict[str, Any]] = None
        self.statescope_out = (
            statescope_out
            if statescope_out is not None
            else os.environ.get(STATESCOPE_OUT_ENV, "").strip() or None
        )
        resolved_statescope = (
            statescope if statescope is not None else _env_flag(STATESCOPE_ENV)
        )
        self.statescope = (
            resolved_statescope
            if resolved_statescope is not None
            else self.statescope_out is not None
        )
        #: Per-run statescope records folded in submission order (series
        #: peaks/lasts sum, findings and conformance checks concatenate;
        #: see :func:`repro.obs.statescope.merge_statescope`) — the
        #: fleet-wide state-footprint view, cache hits included.
        self.fleet_statescope: Dict[str, Any] = {}
        self.stream = stream
        #: Per-run telemetry envelopes merged in submission order — the
        #: fleet-wide metrics view.  Deterministic: for a fixed seed the
        #: serial and parallel merges are bit-identical.
        self.fleet_registry = MetricsRegistry()
        #: Fleet-wide collapsed flamegraph stacks (sample counts sum).
        self.fleet_flame: Dict[str, int] = {}
        self.stats = ExecStats()
        self._runs_total = self.registry.counter(
            "exec_runs_total",
            "Scenario runs executed by the experiment engine, by mode.",
            labelnames=("mode",),
        )
        self._cache_events = self.registry.counter(
            "exec_cache_events_total",
            "Run-cache probes by result.",
            labelnames=("result",),
        )
        self._worker_wall = self.registry.histogram(
            "exec_worker_wall_seconds",
            "Per-run wall-clock seconds, by execution mode.",
            labelnames=("mode",),
            buckets=WALL_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_specs(
        self, specs: Iterable[ScenarioSpec], figure: str = ""
    ) -> List[RunSummary]:
        """Execute every spec and return summaries in submission order.

        ``figure`` labels the run in the history store and the fleet
        progress events (e.g. ``"fig6"``); it does not affect results.
        """
        from repro.obs.session import current_telemetry

        began = time.perf_counter()
        ordered = list(specs)
        results: List[Optional[RunSummary]] = [None] * len(ordered)
        pending: List[Tuple[int, ScenarioSpec, Optional[str]]] = []

        default_config = current_telemetry()
        if default_config is not None and not default_config.enabled():
            default_config = None
        collect = (
            self.collect_telemetry
            if self.collect_telemetry is not None
            else default_config is not None
        )
        telemetry_args: Optional[Dict[str, Any]] = None
        if collect:
            telemetry_args = {
                "profile": default_config.profile if default_config else False,
                "sample_interval": (
                    default_config.sample_interval if default_config else None
                ),
                "flame": bool(
                    default_config
                    and (default_config.flame or default_config.flame_path)
                ),
            }

        progress = None
        if self.progress or self.events_path:
            from repro.obs.fleet import FleetProgress

            progress = FleetProgress(
                total=len(ordered),
                jobs=self.jobs,
                stream=self.stream,
                events_path=self.events_path,
                show=self.progress,
            )
            progress.run_started(figure)

        fleet = None
        if self.fleetperf:
            from repro.obs.fleetperf import FleetPerf

            fleet = FleetPerf(jobs=self.jobs, total=len(ordered))

        probe_began = time.perf_counter()
        for index, spec in enumerate(ordered):
            key: Optional[str] = None
            if self.cache is not None:
                key = cache_key(spec)
                hit = self.cache.get(key)
                if hit is not None:
                    hit.cached = True
                    results[index] = hit
                    self.stats.cache_hits += 1
                    self._cache_events.labels(result="hit").inc()
                    if fleet is not None:
                        fleet.spec_cached(hit.label)
                    if progress is not None:
                        progress.spec_cached(hit.label)
                    continue
                self.stats.cache_misses += 1
                self._cache_events.labels(result="miss").inc()
            pending.append((index, spec, key))
        if fleet is not None and self.cache is not None:
            fleet.charge("fleet.cache", time.perf_counter() - probe_began)

        if pending:
            workers = min(self.jobs, len(pending))
            summaries: List[Optional[RunSummary]] = [None] * len(pending)
            if workers > 1:
                mode = "parallel"
                payloads = [
                    (
                        slot,
                        spec,
                        telemetry_args,
                        self.audit,
                        self.fleetperf,
                        self.statescope,
                    )
                    for slot, (_, spec, _) in enumerate(pending)
                ]
                context = multiprocessing.get_context("spawn")
                if fleet is not None:
                    fleet.pool_opening()
                with context.Pool(processes=workers) as pool:
                    if progress is not None:
                        for _, spec, _ in pending:
                            progress.spec_started(spec.label)
                    if fleet is not None:
                        for slot, (_, spec, _) in enumerate(pending):
                            fleet.spec_submitted(slot, spec.label)
                    # Completion queue: results arrive as workers finish
                    # (live progress), then land back in their submission
                    # slot so downstream order never depends on timing.
                    for slot, summary in pool.imap_unordered(
                        _execute_indexed, payloads, chunksize=1
                    ):
                        summaries[slot] = summary
                        if fleet is not None:
                            fleet.spec_received(slot, summary)
                        if progress is not None:
                            progress.spec_finished(
                                summary.label, summary.wall_seconds, mode
                            )
            else:
                mode = "serial"
                for slot, (_, spec, _) in enumerate(pending):
                    if progress is not None:
                        progress.spec_started(spec.label)
                    if fleet is not None:
                        fleet.spec_submitted(slot, spec.label)
                    summary = _execute_spec(
                        spec,
                        telemetry_args,
                        self.audit,
                        self.fleetperf,
                        self.statescope,
                    )
                    summaries[slot] = summary
                    if fleet is not None:
                        fleet.spec_received(slot, summary)
                    if progress is not None:
                        progress.spec_finished(
                            summary.label, summary.wall_seconds, mode
                        )
            for (index, _, key), summary in zip(pending, summaries):
                results[index] = summary
                self._note_run(mode, summary)
                if self.cache is not None and key is not None:
                    self.cache.put(key, summary)

        final = [summary for summary in results if summary is not None]
        self._merge_fleet_telemetry(final, default_config)
        self._merge_fleet_audit(final)
        self._merge_fleet_statescope(final)
        wall = time.perf_counter() - began
        if fleet is not None:
            from repro.obs.fleetperf import merge_fleetperf

            # Submission order, cache hits included: replayed records
            # fold in exactly like freshly executed ones (the telemetry
            # round-trip contract).
            for summary in final:
                if summary.fleetperf:
                    merge_fleetperf(self.fleet_fleetperf, summary.fleetperf)
            self.last_fleetperf = fleet.report(wall)
            if self.fleet_trace:
                from repro.obs.export import write_fleet_trace

                write_fleet_trace(self.fleet_trace, self.last_fleetperf)
        if progress is not None:
            progress.run_finished()
        if self.history_dir is not None:
            from repro.obs.history import RunHistory

            RunHistory(self.history_dir).append(
                figure=figure,
                jobs=self.jobs,
                wall_seconds=wall,
                specs=ordered,
                summaries=final,
            )
        if self.fleet_metrics_path:
            with open(self.fleet_metrics_path, "w", encoding="utf-8") as fh:
                json.dump(self.merged_snapshot(), fh, indent=2)
                fh.write("\n")
        if self.audit_out and self.fleet_audit:
            self._write_audit_report(figure)
        if self.statescope_out and self.fleet_statescope:
            self._write_statescope_report(figure)
        return final

    def _merge_fleet_telemetry(
        self, summaries: Sequence[RunSummary], default_config: Optional[Any]
    ) -> None:
        """Fold per-run envelopes into the fleet registry (submission
        order, so gauge last-write-wins stays deterministic) and forward
        worker/cached records to the process-default writer — in-process
        sessions already persisted themselves."""
        pid = os.getpid()
        for summary in summaries:
            envelope = summary.telemetry
            if not envelope:
                continue
            metrics = envelope.get("metrics")
            if metrics:
                self.fleet_registry.merge_snapshot(metrics)
            flame = envelope.get("flame")
            if flame and flame.get("stacks"):
                from repro.obs.profiler import merge_collapsed

                merge_collapsed(self.fleet_flame, flame["stacks"])
            if default_config is not None and (
                summary.cached or summary.worker_pid != pid
            ):
                default_config.writer().add_run(envelope)
                if flame and flame.get("stacks") and default_config.flame_path:
                    # Worker stacks reach the --flame-out file through
                    # the same accumulating writer in-process sessions
                    # use, so serial and parallel runs converge.
                    default_config.writer().add_flame(flame["stacks"])

    def _merge_fleet_audit(self, summaries: Sequence[RunSummary]) -> None:
        """Fold per-run audit summaries into :attr:`fleet_audit` in
        submission order — integer tallies are order-free and the float
        accumulators sum in one fixed order, so serial and ``--jobs N``
        merges are bit-for-bit identical (cache hits replay their stored
        summaries the same way)."""
        if not self.audit:
            return
        from repro.obs.audit import merge_audit_summaries

        for summary in summaries:
            if summary.audit:
                merge_audit_summaries(self.fleet_audit, summary.audit)

    def _merge_fleet_statescope(self, summaries: Sequence[RunSummary]) -> None:
        """Fold per-run statescope records into :attr:`fleet_statescope`
        in submission order — all merged quantities are order-free sums
        or concatenations keyed by submission slot, so serial and
        ``--jobs N`` merges are bit-for-bit identical (cache hits replay
        their stored records the same way)."""
        if not self.statescope:
            return
        from repro.obs.statescope import merge_statescope

        for summary in summaries:
            if summary.statescope:
                merge_statescope(self.fleet_statescope, summary.statescope)

    def _write_statescope_report(self, figure: str) -> None:
        from repro.obs.statescope import render_statescope_report

        document = {
            "figure": figure,
            "jobs": self.jobs,
            "record": self.fleet_statescope,
            "report": render_statescope_report(self.fleet_statescope),
        }
        with open(self.statescope_out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def _write_audit_report(self, figure: str) -> None:
        from repro.obs.audit import fp_confidence, render_audit_report

        document = {
            "figure": figure,
            "jobs": self.jobs,
            "summary": self.fleet_audit,
            "confidence": fp_confidence(self.fleet_audit),
            "report": render_audit_report(self.fleet_audit),
        }
        with open(self.audit_out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def merged_snapshot(self) -> Dict[str, dict]:
        """The engine's own exec counters folded together with the
        fleet-wide per-run telemetry, as one snapshot."""
        merged = MetricsRegistry()
        merged.merge(self.registry)
        merged.merge(self.fleet_registry)
        return merged.snapshot()

    def _note_run(self, mode: str, summary: RunSummary) -> None:
        if mode == "parallel":
            self.stats.parallel_runs += 1
        else:
            self.stats.serial_runs += 1
        self.stats.worker_wall_total += summary.wall_seconds
        self.stats.per_run_wall.append(summary.wall_seconds)
        self._runs_total.labels(mode=mode).inc()
        self._worker_wall.labels(mode=mode).observe(summary.wall_seconds)


def run_specs(
    specs: Sequence[ScenarioSpec],
    jobs: Optional[int] = None,
    cache_dir: Optional[Any] = None,
    use_cache: bool = True,
    registry: Optional[MetricsRegistry] = None,
    figure: str = "",
    collect_telemetry: Optional[bool] = None,
    audit: Optional[bool] = None,
    fleetperf: Optional[bool] = None,
    statescope: Optional[bool] = None,
) -> List[RunSummary]:
    """One-shot convenience over :class:`ExperimentEngine`."""
    engine = ExperimentEngine(
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        registry=registry,
        collect_telemetry=collect_telemetry,
        audit=audit,
        fleetperf=fleetperf,
        statescope=statescope,
    )
    return engine.run_specs(specs, figure=figure)
