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
execute in-process over the same completion loop a pool feeds.

**Instrument round-trip** (docs/OBSERVABILITY.md, "Turning it on"):
the engine resolves one :class:`~repro.obs.instruments.Obs` selection
at construction (``obs=``/``obs_out=``, else ``REPRO_OBS``/
``REPRO_OBS_OUT``) and ships it to every run, worker or in-process.
Each run's instrument records come home in
``RunSummary.instruments``; the run cache stores them, and a cached
summary counts as a hit only when it carries every selected record
and every selected row is replayable (flight-recorder bundles, trace
files, layer profiles and stack samples come from executing the run,
so runs that select them re-execute).  The parent folds the records,
in submission order, into :attr:`ExperimentEngine.fleet` with each
row's ``merge`` as soon as every earlier slot is in — so serial and
``--jobs N`` merges are bit-identical — and rewrites each row's report
in ``<obs-out>`` after every fold, so a killed invocation leaves
reports of every run finished so far.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exec.cache import RunCache, cache_key
from repro.exec.spec import ScenarioSpec
from repro.exec.summary import RunSummary, summarize
from repro.obs.instruments import INSTRUMENTS, Obs, resolve
from repro.obs.metrics import MetricsRegistry

__all__ = ["ExecStats", "ExperimentEngine", "resolve_jobs", "run_specs"]

#: Environment knobs (documented in docs/PERFORMANCE.md).
JOBS_ENV = "REPRO_JOBS"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
PROGRESS_ENV = "REPRO_PROGRESS"
ENGINE_EVENTS_ENV = "REPRO_ENGINE_EVENTS"

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


def _execute_spec(spec: ScenarioSpec, obs: Optional[Obs] = None) -> RunSummary:
    """Run one spec end to end (the worker entry point).

    Top-level so it pickles under the spawn start method.  Imports stay
    inside the function: a freshly spawned interpreter only pays for
    the simulator once it actually runs something.

    ``obs`` selects the run's instruments; their records travel home in
    ``summary.instruments``.  With ``fleetperf`` selected a
    :class:`~repro.obs.fleetperf.WorkerLifecycle` charges the
    simulator-stack import, scenario build, sim run, envelope build and
    envelope pickle to fleet phases.
    """
    names = obs.names if obs is not None else ()
    lifecycle = None
    if "fleetperf" in names:
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
    live = [
        INSTRUMENTS[name].make(obs)
        for name in names
        if INSTRUMENTS[name].make is not None
    ]

    mark = time.perf_counter()
    result = run_scenario(scenario, instruments=live, sanitizer=sanitizer)
    if lifecycle is not None:
        lifecycle.charge("fleet.sim", time.perf_counter() - mark)
    mark = time.perf_counter()
    digest = sanitizer.stream_digest() if sanitizer is not None else None
    summary = summarize(
        result, latency_bucket=spec.latency_bucket, event_digest=digest
    )
    summary.wall_seconds = time.perf_counter() - began
    summary.worker_pid = os.getpid()
    if lifecycle is not None:
        lifecycle.charge("fleet.envelope", time.perf_counter() - mark)
        # Finalize before the record joins ``summary.instruments`` so the
        # byte count describes what the pool pipe actually carries.
        summary.instruments["fleetperf"] = lifecycle.finalize(summary)
    return summary


def _execute_indexed(
    payload: Tuple[int, ScenarioSpec, Obs]
) -> Tuple[int, RunSummary]:
    """Pool adapter: tags each result with its pending-list slot so the
    completion queue (``imap_unordered``) can restore submission order."""
    slot, spec, obs = payload
    return slot, _execute_spec(spec, obs)


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
    obs:
        Instruments to attach to every run (:mod:`repro.obs.instruments`
        names, as an iterable or a comma list; ``None`` = ``REPRO_OBS``
        env, ``()`` = none).
    obs_out:
        Directory for the per-instrument fleet reports (``None`` =
        ``REPRO_OBS_OUT`` env when ``obs`` is ``None``, else none).
    progress:
        Live status line on stderr (``None`` = ``REPRO_PROGRESS`` env,
        else off).
    events_path:
        Append ``fleet.*`` events here as JSON lines (``None`` =
        ``REPRO_ENGINE_EVENTS`` env, else off).
    history_dir:
        Append a run-history entry per :meth:`run_specs` call (``None``
        = ``REPRO_HISTORY_DIR`` env, else off).
    stream:
        Progress stream (``None`` = stderr; tests pass a StringIO).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[Any] = None,
        use_cache: bool = True,
        registry: Optional[MetricsRegistry] = None,
        obs: Optional[Iterable[str]] = None,
        obs_out: Optional[str] = None,
        progress: Optional[bool] = None,
        events_path: Optional[str] = None,
        history_dir: Optional[Any] = None,
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
        self.obs = resolve(obs, obs_out)
        #: Fleet-merged instrument records by name, folded in submission
        #: order (cache hits included) — bit-identical between serial
        #: and parallel execution.  The telemetry view starts from this
        #: engine's exec counters, so its report is the whole-fleet
        #: snapshot; the fleetperf view also holds the latest pool
        #: timeline under ``"pool"``.
        self.fleet: Dict[str, Dict[str, Any]] = {name: {} for name in self.obs.names}
        if "telemetry" in self.fleet:
            self.fleet["telemetry"]["exec"] = self.registry
        if progress is None:
            raw = os.environ.get(PROGRESS_ENV, "").strip().lower()
            progress = raw not in ("", "0", "false", "no", "off")
        self.progress = progress
        self.events_path = (
            events_path
            if events_path is not None
            else os.environ.get(ENGINE_EVENTS_ENV, "").strip() or None
        )
        if history_dir is None:
            from repro.obs.history import HISTORY_DIR_ENV

            history_dir = os.environ.get(HISTORY_DIR_ENV, "").strip() or None
        self.history_dir = history_dir
        self.stream = stream
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
        began = time.perf_counter()
        ordered = list(specs)
        results: List[Optional[RunSummary]] = [None] * len(ordered)
        pending: List[Tuple[int, ScenarioSpec, Optional[str]]] = []
        obs = self.obs

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
        if "fleetperf" in obs.names:
            from repro.obs.fleetperf import FleetPerf

            fleet = FleetPerf(jobs=self.jobs, total=len(ordered))

        probe_began = time.perf_counter()
        for index, spec in enumerate(ordered):
            key: Optional[str] = None
            if self.cache is not None:
                key = cache_key(spec)
                hit = self.cache.get(key)
                # A hit must replay every selected instrument's record;
                # one stored without them, or a run whose selected
                # output cannot be replayed, is re-executed and
                # re-stored.
                if hit is not None and all(
                    INSTRUMENTS[name].replayable and name in hit.instruments
                    for name in obs.names
                ):
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

        def submit(slot: int, label: str) -> None:
            if progress is not None:
                progress.spec_started(label)
            if fleet is not None:
                fleet.spec_submitted(slot, label)

        payloads = [(slot, spec, obs) for slot, (_, spec, _) in enumerate(pending)]
        workers = min(self.jobs, len(pending))
        mode = "parallel" if workers > 1 else "serial"
        folded = self._fold(results, 0, figure)
        with contextlib.ExitStack() as stack:
            if workers > 1:
                if fleet is not None:
                    fleet.pool_opening()
                context = multiprocessing.get_context("spawn")
                pool = stack.enter_context(context.Pool(processes=workers))
                for slot, (_, spec, _) in enumerate(pending):
                    submit(slot, spec.label)
                # Completion queue: results arrive as workers finish
                # (live progress), then land back in their submission
                # slot so downstream order never depends on timing.
                completions = pool.imap_unordered(_execute_indexed, payloads, chunksize=1)
            else:

                def serial() -> Iterator[Tuple[int, RunSummary]]:
                    for payload in payloads:
                        submit(payload[0], payload[1].label)
                        yield _execute_indexed(payload)

                completions = serial()
            for slot, summary in completions:
                index, _, key = pending[slot]
                results[index] = summary
                if fleet is not None:
                    fleet.spec_received(slot, summary)
                if progress is not None:
                    progress.spec_finished(summary.label, summary.wall_seconds, mode)
                self._note_run(mode, summary)
                if self.cache is not None and key is not None:
                    self.cache.put(key, summary)
                folded = self._fold(results, folded, figure)

        final = [summary for summary in results if summary is not None]
        wall = time.perf_counter() - began
        if fleet is not None:
            self.fleet["fleetperf"]["pool"] = fleet.report(wall)
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
        if obs.out:
            # Every fold has rewritten the reports already; the pool
            # timeline is complete only now (and an empty call folds
            # nothing).
            self._write_reports(figure, ("fleetperf",) if ordered else obs.names)
        return final

    def _fold(
        self, results: List[Optional[RunSummary]], folded: int, figure: str
    ) -> int:
        """Fold every finished summary from slot ``folded`` up to the
        first unfinished one into :attr:`fleet` (submission order, cache
        hits included: replayed records fold in exactly like executed
        ones), rewrite the reports if any record moved, and return the
        next slot to fold."""
        start = folded
        while folded < len(results) and results[folded] is not None:
            for name in self.obs.names:
                record = results[folded].instruments.get(name)
                if record:
                    INSTRUMENTS[name].merge(self.fleet[name], record)
            folded += 1
        if self.obs.out and folded > start:
            self._write_reports(figure, self.obs.names)
        return folded

    def _write_reports(self, figure: str, names: Iterable[str]) -> None:
        """Write the fleet report of each selected instrument in
        ``names`` to ``<obs-out>/<name>.json`` (``.txt`` for a text
        report), aside and renamed into place, so a killed invocation
        leaves parseable reports of every run folded so far."""
        os.makedirs(self.obs.out, exist_ok=True)
        for name in names:
            report = INSTRUMENTS[name].report
            if report is None or name not in self.fleet:
                continue
            document = report(self.fleet[name], figure, self.jobs)
            text = isinstance(document, str)
            path = os.path.join(self.obs.out, f"{name}.{'txt' if text else 'json'}")
            scratch = f"{path}.{os.getpid()}"
            with open(scratch, "w", encoding="utf-8") as fh:
                if text:
                    fh.write(document)
                else:
                    json.dump(document, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            os.replace(scratch, path)

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
    obs: Optional[Iterable[str]] = None,
) -> List[RunSummary]:
    """One-shot convenience over :class:`ExperimentEngine`."""
    engine = ExperimentEngine(
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        registry=registry,
        obs=obs,
    )
    return engine.run_specs(specs, figure=figure)
