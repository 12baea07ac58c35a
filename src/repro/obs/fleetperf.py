"""The fleet scheduling observatory: where parallel wall time goes.

``BENCH_parallel.json``'s one measured datapoint — ``parallel_speedup:
0.776`` on a single-core host — says the spawn-pool engine is *slower*
than serial, but nothing about why.  This module is the yardstick the
multicore overhaul will be gated on: measure with
phase attribution first, optimize with confidence second.

Two cooperating recorders cover the fleet:

- :class:`WorkerLifecycle` rides inside each worker run
  (:func:`repro.exec.engine._execute_spec`).  It charges wall time to
  lifecycle phases — simulator-stack import, scenario build, sim run,
  telemetry-envelope build, envelope pickling (with the byte count) —
  and stamps worker birth (module import in the spawned interpreter),
  task start, and task finish on the shared monotonic clock.  The
  record ships home inside the pickled
  :class:`~repro.exec.summary.RunSummary` (``.instruments["fleetperf"]``),
  the same round-trip every :mod:`repro.obs.instruments` row takes, so
  the run cache replays it too.
- :class:`FleetPerf` rides in the parent engine.  It stamps pool open,
  per-spec submit and receive, and the parent-side cache-probe cost,
  then folds the worker records into a pool-timeline report:
  per-spec ``submitted → started → finished → received``, derived
  worker-occupancy/queue-depth samples, and per-worker lanes.

:func:`attribute_speedup` turns one report into the speedup-attribution
block embedded in ``BENCH_parallel.json``: the measured parallel wall
is decomposed into **compute** (worker phases doing real work),
**startup** (interpreter spawn + import), **serialization** (dispatch +
envelope pickle + ship-home), **imbalance** (idle worker tails),
**straggler** (the tail excess of the last-finishing run), and a
**residual** remainder (contention, parent bookkeeping, clock skew).
The six components sum to the measured wall *by construction*; the
*coverage* figure — the five measured components over the wall — is the
phase-coverage invariant (≥ 0.9 asserted by the parallel benchmark).

Phase names are compile-time constants declared in
:data:`FLEETPERF_PHASES` and linted by simlint rule SL015.

Cross-process timestamps: workers and parent both read
``time.perf_counter``, which on Linux is ``CLOCK_MONOTONIC`` — one
epoch for every process on the host, so parent-side subtraction is
meaningful.  Every derived duration is clamped at zero, so a platform
with per-process epochs degrades to under-attribution (visible as
residual), never to negative phases.

The module also carries the attribution-report CLI::

    python -m repro.obs.fleetperf report BENCH_parallel.json
    python -m repro.obs.fleetperf report CAND.json BASE.json --tolerance 25

which renders the attribution table and exits 1 on regression (coverage
below ``--min-coverage``, or speedup regressed beyond ``--tolerance``
percent against the baseline document) and 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "FLEETPERF_PHASES",
    "FleetPerf",
    "WorkerLifecycle",
    "attribute_speedup",
    "merge_fleetperf",
    "render_attribution",
]

#: Every phase the fleet observatory may be charged with.  simlint
#: SL015 enforces that ``charge(...)`` call sites use literals drawn
#: from this registry, so the taxonomy below is the complete vocabulary
#: of ``BENCH_parallel.json``'s fleetperf block:
#:
#: - ``fleet.spawn``    — interpreter spawn + module import, pool open
#:   to worker birth (parent-derived per worker; zero in-process).
#: - ``fleet.dispatch`` — submit to worker entry: completion-queue wait
#:   plus spec unpickling (parent-derived per run).
#: - ``fleet.cache``    — the parent's cache probes for the whole spec
#:   list (charged once per :meth:`FleetPerf` run).
#: - ``fleet.import``   — the simulator-stack import inside the worker
#:   (paid once per worker process, on its first run).
#: - ``fleet.build``    — ``spec.build()``: scenario construction.
#: - ``fleet.sim``      — ``run_scenario``: the simulation itself.
#: - ``fleet.envelope`` — summary extraction + telemetry/audit
#:   envelope attachment.
#: - ``fleet.pickle``   — pickling the finished envelope (the byte
#:   count rides the record as ``envelope_bytes``).
#: - ``fleet.ship``     — worker finish to parent receive
#:   (parent-derived per run).
#: - ``fleet.idle``     — worker idle tail while the pool drains
#:   (parent-derived per worker; the imbalance signal).
FLEETPERF_PHASES = (
    "fleet.spawn",
    "fleet.dispatch",
    "fleet.cache",
    "fleet.import",
    "fleet.build",
    "fleet.sim",
    "fleet.envelope",
    "fleet.pickle",
    "fleet.ship",
    "fleet.idle",
)

#: The worker-side phases that are *useful work* for attribution.
_COMPUTE_PHASES = ("fleet.import", "fleet.build", "fleet.sim", "fleet.envelope")

#: The attribution components, in report order.
ATTRIBUTION_COMPONENTS = (
    "compute",
    "startup",
    "serialization",
    "imbalance",
    "straggler",
    "residual",
)


def _clamp(value: float) -> float:
    return value if value > 0.0 else 0.0


class WorkerLifecycle:
    """One run's worth of worker-side lifecycle accounting.

    Created at worker entry by :func:`~repro.exec.engine._execute_spec`
    when fleetperf is on; :meth:`finalize` pickles the finished summary
    (byte accounting), stamps the finish, and returns the JSON-able
    record that rides home in ``RunSummary.instruments["fleetperf"]``.
    """

    __slots__ = ("clock", "module_imported_at", "started_at", "phases")

    def __init__(
        self,
        module_imported_at: float,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.clock = clock
        self.module_imported_at = module_imported_at
        self.started_at = clock()
        self.phases: Dict[str, Dict[str, float]] = {}

    def charge(self, name: str, seconds: float) -> None:
        """Charge a pre-measured interval to phase ``name`` (a literal
        from :data:`FLEETPERF_PHASES`; simlint SL015)."""
        row = self.phases.get(name)
        if row is None:
            row = self.phases[name] = {"calls": 0, "seconds": 0.0}
        row["calls"] += 1
        row["seconds"] += seconds

    def finalize(self, summary: Any) -> Dict[str, Any]:
        """Measure the envelope pickle, stamp the finish, return the
        record.  Called before the record joins ``summary.instruments``
        so the byte count describes exactly what the pool pipe will
        carry (minus this record itself)."""
        import os
        import pickle

        began = self.clock()
        blob = pickle.dumps(summary, protocol=pickle.HIGHEST_PROTOCOL)
        self.charge("fleet.pickle", self.clock() - began)
        return {
            "worker_pid": os.getpid(),
            "module_imported_at": self.module_imported_at,
            "started_at": self.started_at,
            "finished_at": self.clock(),
            "envelope_bytes": len(blob),
            "phases": self.phases,
        }


class FleetPerf:
    """Parent-side pool-timeline recorder for one ``run_specs`` call.

    The engine stamps pool open, per-spec submit/receive, and parent
    phase costs (cache probes) through this object; :meth:`report`
    folds the worker records into the pool-timeline document that
    feeds :func:`attribute_speedup` and the Chrome-trace export.
    """

    def __init__(
        self,
        jobs: int,
        total: int,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.jobs = max(1, jobs)
        self.total = total
        self.clock = clock
        self.began_at = clock()
        self.pool_opened_at: Optional[float] = None
        self.cached = 0
        self.phases: Dict[str, Dict[str, float]] = {}
        self._entries: Dict[int, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def charge(self, name: str, seconds: float) -> None:
        """Charge a parent-side interval to phase ``name`` (SL015)."""
        row = self.phases.get(name)
        if row is None:
            row = self.phases[name] = {"calls": 0, "seconds": 0.0}
        row["calls"] += 1
        row["seconds"] += seconds

    def spec_cached(self, label: str) -> None:
        self.cached += 1

    def pool_opening(self) -> None:
        """Stamp taken immediately before the pool is constructed, so
        worker-birth minus this stamp is spawn + import."""
        self.pool_opened_at = self.clock()

    def spec_submitted(self, slot: int, label: str) -> None:
        self._entries[slot] = {
            "slot": slot,
            "label": label,
            "submitted_at": self.clock(),
        }

    def spec_received(self, slot: int, summary: Any) -> None:
        entry = self._entries.get(slot)
        if entry is None:
            return
        entry["received_at"] = self.clock()
        record = summary.instruments.get("fleetperf") or {}
        entry["worker_pid"] = record.get("worker_pid", 0)
        entry["module_imported_at"] = record.get("module_imported_at")
        entry["started_at"] = record.get("started_at")
        entry["finished_at"] = record.get("finished_at")
        entry["envelope_bytes"] = record.get("envelope_bytes", 0)
        entry["phases"] = record.get("phases", {})

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _relative(self, stamp: Optional[float]) -> Optional[float]:
        if stamp is None:
            return None
        return stamp - self.began_at

    def report(self, wall_seconds: float) -> Dict[str, Any]:
        """The pool-timeline document, all stamps relative to the
        ``run_specs`` start on the parent clock."""
        timeline: List[Dict[str, Any]] = []
        for slot in sorted(self._entries):
            entry = self._entries[slot]
            if "received_at" not in entry:
                continue  # submitted but never completed (user abort)
            timeline.append(
                {
                    "slot": entry["slot"],
                    "label": entry["label"],
                    "worker_pid": entry.get("worker_pid", 0),
                    "worker_born": self._relative(
                        entry.get("module_imported_at")
                    ),
                    "submitted": self._relative(entry["submitted_at"]),
                    "started": self._relative(entry.get("started_at")),
                    "finished": self._relative(entry.get("finished_at")),
                    "received": self._relative(entry["received_at"]),
                    "envelope_bytes": entry.get("envelope_bytes", 0),
                    "phases": entry.get("phases", {}),
                }
            )
        return {
            "jobs": self.jobs,
            "total": self.total,
            "runs": len(timeline),
            "cached": self.cached,
            "wall_seconds": wall_seconds,
            "pool_opened": self._relative(self.pool_opened_at),
            "parent_phases": {
                name: dict(row) for name, row in sorted(self.phases.items())
            },
            "timeline": timeline,
            "occupancy": occupancy_samples(timeline),
        }


def occupancy_samples(timeline: List[Dict[str, Any]]) -> List[List[float]]:
    """``[t, busy_workers, queue_depth]`` samples at every start/finish
    boundary, derived purely from the timeline stamps."""
    deltas: List[Tuple[float, int, int]] = []
    for entry in timeline:
        submitted = entry.get("submitted")
        started = entry.get("started")
        finished = entry.get("finished")
        if submitted is not None:
            deltas.append((submitted, 0, 1))
        if started is not None:
            deltas.append((started, 1, -1))
        if finished is not None:
            deltas.append((finished, -1, 0))
    deltas.sort()
    samples: List[List[float]] = []
    busy = queued = 0
    for when, dbusy, dqueue in deltas:
        busy += dbusy
        queued += dqueue
        if samples and samples[-1][0] == when:
            samples[-1][1] = busy
            samples[-1][2] = max(0, queued)
        else:
            samples.append([when, busy, max(0, queued)])
    return samples


# ----------------------------------------------------------------------
# Fleet merging (the PR 4 contract: per-run records fold together in
# submission order, so serial and --jobs N merges agree structurally)
# ----------------------------------------------------------------------
def merge_fleetperf(into: Dict[str, Any], record: Dict[str, Any]) -> Dict[str, Any]:
    """Fold one worker lifecycle record into an accumulator.

    Phase calls and seconds sum; ``envelope_bytes`` sums (the fleet's
    total pipe traffic); ``runs`` counts records.  ``into`` starts as
    ``{}`` and is mutated in place — the shape of
    ``ExperimentEngine.fleet["fleetperf"]``.
    """
    into["runs"] = into.get("runs", 0) + 1
    into["envelope_bytes"] = (
        into.get("envelope_bytes", 0) + record.get("envelope_bytes", 0)
    )
    phases = into.setdefault("phases", {})
    for name, row in (record.get("phases") or {}).items():
        merged = phases.setdefault(name, {"calls": 0, "seconds": 0.0})
        merged["calls"] += row.get("calls", 0)
        merged["seconds"] += row.get("seconds", 0.0)
    return into


def fleetperf_report(merged: Dict[str, Any], figure: str, jobs: int) -> Dict[str, Any]:
    """``<obs-out>/fleetperf.json``: the latest ``run_specs`` pool
    timeline (``merged["pool"]``, a :meth:`FleetPerf.report`) as a
    Chrome trace — one lane per worker, spec slices, occupancy counter."""
    from repro.obs.export import fleet_trace_events

    events = fleet_trace_events(merged["pool"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Speedup attribution
# ----------------------------------------------------------------------
def _phase_seconds(phases: Dict[str, Any], names: Tuple[str, ...]) -> float:
    return sum(
        (phases.get(name) or {}).get("seconds", 0.0) for name in names
    )


def attribute_speedup(
    report: Dict[str, Any], serial_wall: Optional[float] = None
) -> Dict[str, Any]:
    """Decompose a pool-timeline report's wall clock into components.

    All components are in *wall-equivalent* seconds: worker-slot
    seconds divided by the effective worker count ``W``, so they sum to
    the measured wall exactly (``residual`` is the remainder by
    construction, and may be slightly negative under clock skew).

    - **compute**: worker phases doing real work (import, build, sim,
      envelope) — on a contended host these walls absorb timesharing,
      which is the honest place for it.
    - **startup**: pool open to worker birth, per distinct worker.
    - **serialization**: dispatch (submit → worker entry, minus spawn
      overlap), envelope pickling, and ship-home (finish → receive).
    - **imbalance**: idle worker tails while the pool drains.
    - **straggler**: the slice of those tails attributable to the
      last-finishing run exceeding the mean run wall.
    - **residual**: everything unattributed — inter-task gaps, parent
      bookkeeping (cache probes, merges), contention not visible in
      worker walls, clock skew.

    ``coverage`` is the five measured components over the wall — the
    phase-coverage invariant (≥ 0.9 is the BENCH_parallel acceptance
    bar on a measured host).
    """
    wall = report.get("wall_seconds", 0.0)
    timeline = report.get("timeline") or []
    pool_opened = report.get("pool_opened")
    jobs = report.get("jobs", 1)
    out: Dict[str, Any] = {
        "wall_seconds": wall,
        "runs": len(timeline),
        "workers": 0,
        "components": {name: 0.0 for name in ATTRIBUTION_COMPONENTS},
        "coverage": 0.0,
        "envelope_bytes": sum(e.get("envelope_bytes", 0) for e in timeline),
    }
    if serial_wall is not None and wall > 0:
        out["serial_wall_seconds"] = serial_wall
        out["actual_speedup"] = serial_wall / wall
        out["ideal_speedup"] = float(min(jobs, len(timeline)) or 1)
        out["efficiency"] = out["actual_speedup"] / out["ideal_speedup"]
    if not timeline or wall <= 0:
        return out

    # Group the timeline into worker lanes.
    lanes: Dict[int, List[Dict[str, Any]]] = {}
    for entry in timeline:
        lanes.setdefault(entry.get("worker_pid", 0), []).append(entry)
    for lane in lanes.values():
        lane.sort(key=lambda e: e.get("started") or 0.0)
    workers = len(lanes)
    out["workers"] = workers

    compute_slot = 0.0
    startup_slot = 0.0
    serialization_slot = 0.0
    lane_ends: List[float] = []
    run_walls: List[Tuple[float, Dict[str, Any]]] = []

    for lane in lanes.values():
        born = min(
            (e["worker_born"] for e in lane if e.get("worker_born") is not None),
            default=None,
        )
        if pool_opened is not None and born is not None:
            startup_slot += _clamp(born - pool_opened)
        previous_end: Optional[float] = born
        for entry in lane:
            started = entry.get("started")
            finished = entry.get("finished")
            received = entry.get("received")
            phases = entry.get("phases") or {}
            compute_slot += _phase_seconds(phases, _COMPUTE_PHASES)
            serialization_slot += _phase_seconds(phases, ("fleet.pickle",))
            if started is not None:
                floor = entry.get("submitted", started)
                if previous_end is not None:
                    floor = max(floor, previous_end)
                serialization_slot += _clamp(started - floor)
            if finished is not None and received is not None:
                serialization_slot += _clamp(received - finished)
            if finished is not None:
                previous_end = finished
                run_walls.append(
                    (_clamp(finished - (started or finished)), entry)
                )
        if previous_end is not None:
            lane_ends.append(previous_end)

    end = max(lane_ends) if lane_ends else wall
    imbalance_slot = sum(_clamp(end - lane_end) for lane_end in lane_ends)

    # The straggler share of that idle: the last-finishing run's wall
    # beyond the mean keeps (workers - 1) lanes waiting.
    straggler_slot = 0.0
    if run_walls and workers > 1:
        mean_wall = sum(w for w, _ in run_walls) / len(run_walls)
        last_wall = max(
            run_walls, key=lambda item: item[1].get("finished") or 0.0
        )[0]
        straggler_slot = min(
            imbalance_slot, _clamp(last_wall - mean_wall) * (workers - 1)
        )
        imbalance_slot -= straggler_slot

    components = out["components"]
    components["compute"] = compute_slot / workers
    components["startup"] = startup_slot / workers
    components["serialization"] = serialization_slot / workers
    components["imbalance"] = imbalance_slot / workers
    components["straggler"] = straggler_slot / workers
    attributed = sum(
        components[name] for name in ATTRIBUTION_COMPONENTS if name != "residual"
    )
    components["residual"] = wall - attributed
    out["coverage"] = attributed / wall
    return out


# ----------------------------------------------------------------------
# Rendering + CLI (python -m repro.obs.fleetperf report ...)
# ----------------------------------------------------------------------
def render_attribution(attribution: Dict[str, Any]) -> str:
    """Human-readable attribution table for terminal output."""
    wall = attribution.get("wall_seconds", 0.0) or 0.0
    lines = [
        f"parallel wall {wall:.3f}s over {attribution.get('runs', 0)} runs "
        f"on {attribution.get('workers', 0)} worker(s), "
        f"coverage {attribution.get('coverage', 0.0):.1%}",
    ]
    if "actual_speedup" in attribution:
        lines.append(
            f"speedup {attribution['actual_speedup']:.2f}x actual vs "
            f"{attribution['ideal_speedup']:.0f}x ideal "
            f"(efficiency {attribution['efficiency']:.1%})"
        )
    lines.append(f"{'component':<14} {'wall s':>9} {'share':>7}")
    components = attribution.get("components") or {}
    for name in ATTRIBUTION_COMPONENTS:
        seconds = components.get(name, 0.0)
        share = seconds / wall if wall > 0 else 0.0
        lines.append(f"{name:<14} {seconds:>9.3f} {share:>6.1%}")
    if attribution.get("envelope_bytes"):
        lines.append(
            f"envelope traffic {attribution['envelope_bytes']:,} bytes"
        )
    return "\n".join(lines)


def _load_attribution(path: str) -> Dict[str, Any]:
    """The attribution block from a ``BENCH_parallel.json`` document, a
    raw attribution dict, or a pool-timeline report.  Raises
    ``ValueError`` when the document carries none."""
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: not a JSON object")
    if isinstance(document.get("fleetperf"), dict):
        document = document["fleetperf"]
    if "components" in document:
        return document
    if "timeline" in document:
        return attribute_speedup(document)
    raise ValueError(
        f"{path}: no fleetperf attribution block "
        f"(expected 'fleetperf', 'components', or 'timeline')"
    )


def compare_attributions(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    tolerance_pct: float = 25.0,
) -> List[str]:
    """Speedup-regression problems (empty = clean)."""
    problems: List[str] = []
    base = baseline.get("actual_speedup")
    cand = candidate.get("actual_speedup")
    if base is None or cand is None:
        problems.append("missing actual_speedup in one or both documents")
        return problems
    if base > 0 and cand < base * (1.0 - tolerance_pct / 100.0):
        delta = (1.0 - cand / base) * 100.0
        problems.append(
            f"parallel speedup regressed {delta:.1f}% "
            f"({base:.3f}x -> {cand:.3f}x, tolerance {tolerance_pct:g}%)"
        )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.fleetperf",
        description="Speedup-attribution reports for the parallel engine "
        "(BENCH_parallel.json).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report",
        help="render a fleetperf attribution; with a baseline, gate on "
        "speedup regression",
    )
    report.add_argument("candidate", help="candidate document (BENCH_parallel.json)")
    report.add_argument(
        "baseline", nargs="?", default=None,
        help="optional baseline document to gate against",
    )
    report.add_argument(
        "--tolerance", type=float, default=25.0, metavar="PCT",
        help="max allowed speedup regression in percent (default 25)",
    )
    report.add_argument(
        "--min-coverage", type=float, default=0.9, metavar="FRAC",
        help="minimum attribution coverage (default 0.9)",
    )
    args = parser.parse_args(argv)

    try:
        candidate = _load_attribution(args.candidate)
        baseline = (
            _load_attribution(args.baseline) if args.baseline else None
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(render_attribution(candidate))
    problems: List[str] = []
    coverage = candidate.get("coverage", 0.0)
    if coverage < args.min_coverage:
        problems.append(
            f"attribution coverage {coverage:.1%} below the "
            f"{args.min_coverage:.0%} invariant"
        )
    if baseline is not None:
        problems.extend(
            compare_attributions(baseline, candidate, args.tolerance)
        )
    for problem in problems:
        print(f"REGRESSION: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
