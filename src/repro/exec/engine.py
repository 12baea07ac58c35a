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
- **Counters** — per-run wall clock, run counts by execution mode, and
  cache hit/miss counts land in the engine's own :class:`ExecStats`
  (the ``telemetry`` report's ``exec`` block).
- **Status line** — when its stream (stderr by default) is a TTY, the
  engine redraws one :class:`~repro.obs.fleet.FleetProgress` line per
  probe, dispatch and completion; on a pipe or file it writes nothing.

Job-count resolution: an explicit ``jobs`` argument wins, then the
``REPRO_JOBS`` environment variable (an integer, or a ``ValueError``),
then 1 (serial).  Serial runs execute in-process over the same
completion loop a pool feeds.

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
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exec.cache import RunCache, cache_key
from repro.exec.spec import ScenarioSpec
from repro.exec.summary import RunSummary, summarize
from repro.obs.instruments import INSTRUMENTS, Obs, make_live, resolve

__all__ = ["ExecStats", "ExperimentEngine", "resolve_jobs", "run_specs"]

#: Environment knobs (documented in docs/PERFORMANCE.md).
JOBS_ENV = "REPRO_JOBS"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Explicit argument > ``REPRO_JOBS`` env > 1 (serial).

    A ``REPRO_JOBS`` that is not an integer raises ``ValueError``
    rather than quietly running serial.
    """
    if jobs is not None:
        return max(1, int(jobs))
    raw = os.environ.get(JOBS_ENV, "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"{JOBS_ENV}={raw!r} is not an integer") from None


def _execute_spec(spec: ScenarioSpec, obs: Optional[Obs] = None) -> RunSummary:
    """Run one spec end to end (the worker entry point).

    Top-level so it pickles under the spawn start method.  Imports stay
    inside the function: a freshly spawned interpreter only pays for
    the simulator once it actually runs something.

    ``obs`` selects the run's instruments (``None``: none); their
    records travel home in ``summary.instruments``.
    """
    from repro.experiments.runner import run_scenario

    began = time.perf_counter()
    scenario = spec.build()
    live = make_live(obs) if obs is not None else []
    result = run_scenario(scenario, instruments=live)
    summary = summarize(result, latency_bucket=spec.latency_bucket)
    summary.wall_seconds = time.perf_counter() - began
    summary.worker_pid = os.getpid()
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
    """One engine's counters: runs executed by mode, cache probes by
    result, and every executed run's wall clock."""

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
    obs:
        Instruments to attach to every run (:mod:`repro.obs.instruments`
        names, as an iterable or a comma list; ``None`` = ``REPRO_OBS``
        env, ``()`` = none).
    obs_out:
        Directory for the per-instrument fleet reports (``None`` =
        ``REPRO_OBS_OUT`` env when ``obs`` is ``None``, else none).
    stream:
        Where the live fleet status line goes (``None`` = stderr); it
        is drawn only when the stream is a TTY.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[Any] = None,
        use_cache: bool = True,
        obs: Optional[Iterable[str]] = None,
        obs_out: Optional[str] = None,
        stream: Optional[object] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        directory = cache_dir
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV, "").strip() or None
        self.cache: Optional[RunCache] = (
            RunCache(directory) if (use_cache and directory is not None) else None
        )
        self.obs = resolve(obs, obs_out)
        #: Fleet-merged instrument records by name, folded in submission
        #: order (cache hits included) — bit-identical between serial
        #: and parallel execution.  The telemetry view also holds this
        #: engine's :class:`ExecStats`, the ``exec`` block of its report.
        self.fleet: Dict[str, Dict[str, Any]] = {name: {} for name in self.obs.names}
        self.stream = stream if stream is not None else sys.stderr
        self.stats = ExecStats()
        if "telemetry" in self.fleet:
            self.fleet["telemetry"]["exec"] = self.stats

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_specs(
        self, specs: Iterable[ScenarioSpec], figure: str = ""
    ) -> List[RunSummary]:
        """Execute every spec and return summaries in submission order.

        ``figure`` labels the run in the instrument reports (e.g.
        ``"fig6"``); it does not affect results.
        """
        ordered = list(specs)
        results: List[Optional[RunSummary]] = [None] * len(ordered)
        pending: List[Tuple[int, ScenarioSpec, Optional[str]]] = []
        obs = self.obs

        progress = None
        if getattr(self.stream, "isatty", lambda: False)():
            from repro.obs.fleet import FleetProgress

            progress = FleetProgress(
                total=len(ordered), jobs=self.jobs, stream=self.stream
            )

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
                    if progress is not None:
                        progress.spec_cached()
                    continue
                self.stats.cache_misses += 1
            pending.append((index, spec, key))

        def submit() -> None:
            if progress is not None:
                progress.spec_started()

        payloads = [(slot, spec, obs) for slot, (_, spec, _) in enumerate(pending)]
        workers = min(self.jobs, len(pending))
        mode = "parallel" if workers > 1 else "serial"
        folded = self._fold(results, 0, figure)
        with contextlib.ExitStack() as stack:
            if workers > 1:
                context = multiprocessing.get_context("spawn")
                pool = stack.enter_context(context.Pool(processes=workers))
                for _ in pending:
                    submit()
                # Completion queue: results arrive as workers finish
                # (live progress), then land back in their submission
                # slot so downstream order never depends on timing.
                completions = pool.imap_unordered(_execute_indexed, payloads, chunksize=1)
            else:

                def serial() -> Iterator[Tuple[int, RunSummary]]:
                    for payload in payloads:
                        submit()
                        yield _execute_indexed(payload)

                completions = serial()
            for slot, summary in completions:
                index, _, key = pending[slot]
                results[index] = summary
                if progress is not None:
                    progress.spec_finished(summary.wall_seconds)
                self._note_run(mode, summary)
                if self.cache is not None and key is not None:
                    self.cache.put(key, summary)
                folded = self._fold(results, folded, figure)

        if progress is not None:
            progress.run_finished()
        if obs.out and not ordered:
            # An empty call folds nothing; every other call's folds have
            # rewritten the reports already.
            self._write_reports(figure, obs.names)
        return [summary for summary in results if summary is not None]

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
        ``names`` to ``<obs-out>/<name>.json``, aside and renamed into
        place, so a killed invocation leaves parseable reports of every
        run folded so far."""
        os.makedirs(self.obs.out, exist_ok=True)
        for name in names:
            report = INSTRUMENTS[name].report
            if report is None or name not in self.fleet:
                continue
            path = os.path.join(self.obs.out, f"{name}.json")
            scratch = f"{path}.{os.getpid()}"
            with open(scratch, "w", encoding="utf-8") as fh:
                json.dump(report(self.fleet[name], figure, self.jobs), fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(scratch, path)

    def _note_run(self, mode: str, summary: RunSummary) -> None:
        if mode == "parallel":
            self.stats.parallel_runs += 1
        else:
            self.stats.serial_runs += 1
        self.stats.worker_wall_total += summary.wall_seconds
        self.stats.per_run_wall.append(summary.wall_seconds)


def run_specs(
    specs: Sequence[ScenarioSpec],
    jobs: Optional[int] = None,
    cache_dir: Optional[Any] = None,
    use_cache: bool = True,
    figure: str = "",
    obs: Optional[Iterable[str]] = None,
) -> List[RunSummary]:
    """One-shot convenience over :class:`ExperimentEngine`."""
    engine = ExperimentEngine(
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        obs=obs,
    )
    return engine.run_specs(specs, figure=figure)
