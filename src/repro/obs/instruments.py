"""The instrument table: one row per opt-in observability layer.

:data:`INSTRUMENTS` has a row each for the decision audit, the flight
recorder, telemetry, the packet trace, periodic samples, the statescope,
the layer profile, stack samples, the heartbeat and the fleet
observatory, and the whole stack reads it.  ``--obs NAME[,NAME...]``/
``--obs-out DIR`` (or ``REPRO_OBS``/``REPRO_OBS_OUT``) select rows
through :func:`resolve`; the engine ships the resulting :class:`Obs` to
every run, ``make(obs)`` builds the live object that
:func:`~repro.experiments.runner.run_scenario` installs, its
``finalize()`` record rides home (and into the run cache) in
``RunSummary.instruments[name]``, and the engine folds the records into
``ExperimentEngine.fleet[name]`` with ``merge`` in submission order and
writes ``report(merged, figure, jobs)`` to ``<obs-out>/<name>.json``
(``<name>.txt`` when the report is text).  That fold is the only
writer of fleet files, so serial, ``--jobs N`` and cache-hit runs leave
the same ones.

A live object has a ``name``, ``install(run)``, ``finalize() -> dict``
and, when it holds resources, an idempotent ``close()`` that the
runner calls even when the run raises.  ``run`` is the assembled run;
``run.instruments`` maps names to its peers, so each finds the one it
feeds: the audit feeds the flight recorder's ring, the statescope
reads the audit's shadow sets, samples back gauges in the telemetry
registry, the trace carries the statescope timeline, and telemetry
bridges the audit and gathers its peers' records.  Installs follow
table order and finalizes run in reverse.  The fleet observatory has
no runner-side object: its
:class:`~repro.obs.fleetperf.WorkerLifecycle` wraps the whole run in
:func:`repro.exec.engine._execute_spec`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Union

__all__ = [
    "INSTRUMENTS",
    "OBS_ENV",
    "OBS_OUT_ENV",
    "SAMPLE_INTERVAL",
    "Instrument",
    "Obs",
    "resolve",
]

#: Environment fallback for ``--obs`` and ``--obs-out``.
OBS_ENV = "REPRO_OBS"
OBS_OUT_ENV = "REPRO_OBS_OUT"

#: Virtual seconds between the ``samples`` and ``statescope`` ticks.
SAMPLE_INTERVAL = 1.0


@dataclass(frozen=True)
class Obs:
    """A resolved instrument selection; picklable, it rides to workers."""

    names: Tuple[str, ...] = ()
    #: Report directory (``--obs-out``).
    out: Optional[str] = None


@dataclass(frozen=True)
class Instrument:
    """One layer's round-trip: build, fold, report."""

    #: ``make(obs)`` -> live object (``None``: no runner-side object).
    make: Optional[Callable[[Obs], Any]]
    #: ``merge(into, record)`` folds one run's record into the fleet view.
    merge: Callable[[Dict[str, Any], Dict[str, Any]], Any]
    #: ``report(merged, figure, jobs)`` -> the ``<obs-out>/<name>.json``
    #: document, or the text of ``<obs-out>/<name>.txt``.
    report: Optional[Callable[[Dict[str, Any], str, int], Union[dict, str]]] = None
    #: Whether a cached record stands in for a run.  A row that writes
    #: files during the run (flight-recorder bundles, trace files) or
    #: measures the execution itself (profile, stack samples) is not: a
    #: cached summary is re-executed when it is selected.
    replayable: bool = True


def _make_flightrec(obs: Obs) -> Any:
    from repro.obs.flightrec import FlightRecorder

    return FlightRecorder(os.path.join(obs.out, "flightrec"), dump_on_exit=True)


def _make_trace(obs: Obs) -> Any:
    from repro.experiments.tracelog import KNOWN_EVENTS, TraceRecorder
    from repro.obs.spans import SPAN_EVENTS

    return TraceRecorder(
        events=KNOWN_EVENTS + SPAN_EVENTS, directory=os.path.join(obs.out, "trace")
    )


def _lazy(module: str, name: str) -> Callable[..., Any]:
    """A call-through to ``repro.obs.<module>.<name>``, imported on use."""

    def call(*args: Any) -> Any:
        import importlib

        return getattr(importlib.import_module(f"repro.obs.{module}"), name)(*args)

    call.__name__ = name
    return call


def _new(module: str, cls: str) -> Callable[[Obs], Any]:
    """``make`` for a row whose live object takes no arguments."""
    return lambda obs: _lazy(module, cls)()


def _append_run(into: Dict[str, Any], record: Dict[str, Any]) -> Dict[str, Any]:
    into.setdefault("runs", []).append(record)
    return into


def _runs_report(merged: Dict[str, Any], figure: str, jobs: int) -> Dict[str, Any]:
    return {"runs": merged.get("runs", [])}


def _count_runs(into: Dict[str, Any], record: Dict[str, Any]) -> Dict[str, Any]:
    into["runs"] = into.get("runs", 0) + record.get("runs", 0)
    return into


#: Every instrument, in install order.  Telemetry installs before the
#: peers whose records it gathers (so it finalizes after them), samples
#: after telemetry (whose registry backs its gauges), and the trace
#: before the statescope (whose final timeline it carries).
INSTRUMENTS: Dict[str, Instrument] = {
    "audit": Instrument(
        _new("audit", "DecisionAudit"),
        _lazy("audit", "merge_audit_summaries"),
        _lazy("audit", "audit_report"),
    ),
    "flightrec": Instrument(
        _make_flightrec, _lazy("flightrec", "merge_flightrec"), replayable=False
    ),
    "telemetry": Instrument(
        _new("session", "TelemetrySession"),
        _lazy("session", "merge_telemetry"),
        _lazy("session", "telemetry_report"),
    ),
    "trace": Instrument(
        _make_trace,
        _lazy("export", "merge_trace"),
        _lazy("export", "trace_report"),
        replayable=False,
    ),
    "samples": Instrument(
        _new("samplers", "PeriodicSampler"),
        _append_run,
        _runs_report,
    ),
    "statescope": Instrument(
        _new("statescope", "StateScope"),
        _lazy("statescope", "merge_statescope"),
        _lazy("statescope", "statescope_report"),
    ),
    "profile": Instrument(
        _new("layers", "LayerTracer"),
        _lazy("layers", "merge_profile"),
        _runs_report,
        replayable=False,
    ),
    "flame": Instrument(
        _new("profiler", "StackSampler"),
        _lazy("profiler", "merge_flame"),
        _lazy("profiler", "flame_report"),
        replayable=False,
    ),
    "heartbeat": Instrument(_new("profiler", "Heartbeat"), _count_runs),
    "fleetperf": Instrument(
        None,
        _lazy("fleetperf", "merge_fleetperf"),
        _lazy("fleetperf", "fleetperf_report"),
    ),
}

#: Rows that write files into ``--obs-out`` during the run.
_WRITE_DURING_RUN = ("flightrec", "trace")


def _split(raw: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def resolve(
    names: Optional[Iterable[str]] = None, out: Optional[str] = None
) -> Obs:
    """The instrument selection: explicit ``names`` (a comma list or an
    iterable; ``()`` selects nothing) and ``out``, else ``REPRO_OBS`` and
    ``REPRO_OBS_OUT``.

    Raises ``ValueError`` naming the valid choices on an unknown name,
    an out directory without a selection, or ``flightrec`` or ``trace``
    without an out directory.
    """
    if names is None:
        names = _split(os.environ.get(OBS_ENV, ""))
        if out is None:
            out = os.environ.get(OBS_OUT_ENV, "").strip() or None
    elif isinstance(names, str):
        names = _split(names)
    chosen = set(names)
    problem = None
    unknown = sorted(chosen - set(INSTRUMENTS))
    writers = [name for name in _WRITE_DURING_RUN if name in chosen]
    if unknown:
        listed = ", ".join(map(repr, unknown))
        problem = f"unknown instrument {listed} in --obs/{OBS_ENV}"
    elif out and not chosen:
        problem = f"--obs-out/{OBS_OUT_ENV} without --obs/{OBS_ENV}"
    elif writers and not out:
        problem = f"{writers[0]} needs --obs-out/{OBS_OUT_ENV} for its files"
    if problem:
        raise ValueError(f"{problem} (instruments: {', '.join(INSTRUMENTS)})")
    ordered = tuple(name for name in INSTRUMENTS if name in chosen)
    return Obs(names=ordered, out=out)
