"""The instrument table: one row per opt-in observability layer.

:data:`INSTRUMENTS` has a row each for the decision audit, the flight
recorder, telemetry, the statescope and the fleet observatory, and the
whole stack reads it.  ``--obs NAME[,NAME...]``/``--obs-out DIR`` (or
``REPRO_OBS``/``REPRO_OBS_OUT``) select rows through :func:`resolve`;
the engine ships the resulting :class:`Obs` to every run, ``make(obs)``
builds the live object that :func:`~repro.experiments.runner.run_scenario`
installs, its ``finalize()`` record rides home (and into the run cache)
in ``RunSummary.instruments[name]``, and the engine folds the records
into ``ExperimentEngine.fleet[name]`` with ``merge`` in submission
order and writes ``report(merged, figure, jobs)`` to
``<obs-out>/<name>.json``.

A live object has a ``name``, ``install(run)``, ``finalize() -> dict``
and, when it holds resources, an idempotent ``close()`` that the
runner calls even when the run raises.  ``run`` is the assembled run;
``run.instruments`` maps names to its peers, so each finds the one it
feeds: the audit feeds the flight recorder's ring, the statescope
reads the audit's shadow sets, telemetry bridges both.  Installs
follow table order and finalizes run in reverse.  The fleet
observatory has no runner-side object: its
:class:`~repro.obs.fleetperf.WorkerLifecycle` wraps the whole run in
:func:`repro.exec.engine._execute_spec`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

__all__ = ["INSTRUMENTS", "OBS_ENV", "OBS_OUT_ENV", "Instrument", "Obs", "resolve"]

#: Environment fallback for ``--obs`` and ``--obs-out``.
OBS_ENV = "REPRO_OBS"
OBS_OUT_ENV = "REPRO_OBS_OUT"


@dataclass(frozen=True)
class Obs:
    """A resolved instrument selection; picklable, it rides to workers."""

    names: Tuple[str, ...] = ()
    #: Report directory (``--obs-out``).
    out: Optional[str] = None
    #: Collect-mode :class:`~repro.obs.session.TelemetryConfig` for runs
    #: with no process-default config (pool workers).
    telemetry: Optional[Any] = None


@dataclass(frozen=True)
class Instrument:
    """One layer's round-trip: build, fold, report."""

    #: ``make(obs)`` -> live object (``None``: no runner-side object).
    make: Optional[Callable[[Obs], Any]]
    #: ``merge(into, record)`` folds one run's record into the fleet view.
    merge: Callable[[Dict[str, Any], Dict[str, Any]], Any]
    #: ``report(merged, figure, jobs)`` -> the ``<obs-out>/<name>.json``
    #: document.
    report: Optional[Callable[[Dict[str, Any], str, int], Dict[str, Any]]] = None
    #: ``forward(record)`` persists, in this process, a record that did
    #: not persist itself here: one from a pool worker or the run cache.
    forward: Optional[Callable[[Dict[str, Any]], Any]] = None
    #: Whether a cached record stands in for a run.  A row whose output
    #: is a file written during the run (flight-recorder bundles) is
    #: not: a cached summary is re-executed when it is selected.
    replayable: bool = True


def _make_audit(obs: Obs) -> Any:
    from repro.obs.audit import DecisionAudit

    return DecisionAudit()


def _make_flightrec(obs: Obs) -> Any:
    from repro.obs.flightrec import FlightRecorder

    return FlightRecorder(os.path.join(obs.out, "flightrec"), dump_on_exit=True)


def _make_telemetry(obs: Obs) -> Any:
    from repro.obs.session import TelemetryConfig, TelemetrySession, current_telemetry

    # In process, the CLI's config keeps its files accumulating; a pool
    # worker has none and collects into the shipped record instead.
    config = current_telemetry()
    if config is None or not config.enabled():
        config = obs.telemetry or TelemetryConfig(collect=True)
    return TelemetrySession(config)


def _make_statescope(obs: Obs) -> Any:
    from repro.obs.statescope import StateScope

    return StateScope()


def _lazy(module: str, name: str) -> Callable[..., Any]:
    """A call-through to ``repro.obs.<module>.<name>``, imported on use."""

    def call(*args: Any) -> Any:
        import importlib

        return getattr(importlib.import_module(f"repro.obs.{module}"), name)(*args)

    call.__name__ = name
    return call


#: Every instrument, in install order.
INSTRUMENTS: Dict[str, Instrument] = {
    "audit": Instrument(
        _make_audit,
        _lazy("audit", "merge_audit_summaries"),
        _lazy("audit", "audit_report"),
    ),
    "flightrec": Instrument(
        _make_flightrec, _lazy("flightrec", "merge_flightrec"), replayable=False
    ),
    "telemetry": Instrument(
        _make_telemetry,
        _lazy("session", "merge_telemetry"),
        _lazy("session", "telemetry_report"),
        forward=_lazy("session", "forward_telemetry"),
    ),
    "statescope": Instrument(
        _make_statescope,
        _lazy("statescope", "merge_statescope"),
        _lazy("statescope", "statescope_report"),
    ),
    "fleetperf": Instrument(
        None,
        _lazy("fleetperf", "merge_fleetperf"),
        _lazy("fleetperf", "fleetperf_report"),
    ),
}


def _split(raw: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def resolve(
    names: Optional[Iterable[str]] = None, out: Optional[str] = None
) -> Obs:
    """The instrument selection: explicit ``names`` (a comma list or an
    iterable; ``()`` selects nothing) and ``out``, else ``REPRO_OBS`` and
    ``REPRO_OBS_OUT``.  Telemetry also switches on whenever a
    process-default telemetry config (``--metrics-out``, ``--profile``,
    …) is installed.

    Raises ``ValueError`` naming the valid choices on an unknown name,
    an out directory without a selection, or ``flightrec`` without an
    out directory.
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
    if unknown:
        listed = ", ".join(map(repr, unknown))
        problem = f"unknown instrument {listed} in --obs/{OBS_ENV}"
    elif out and not chosen:
        problem = f"--obs-out/{OBS_OUT_ENV} without --obs/{OBS_ENV}"
    elif "flightrec" in chosen and not out:
        problem = f"flightrec needs --obs-out/{OBS_OUT_ENV} for its bundles"
    if problem:
        raise ValueError(f"{problem} (instruments: {', '.join(INSTRUMENTS)})")
    telemetry = None
    from repro.obs.session import TelemetryConfig, current_telemetry

    default = current_telemetry()
    if default is not None and default.enabled():
        chosen.add("telemetry")
        telemetry = TelemetryConfig(
            collect=True,
            profile=default.profile,
            sample_interval=default.sample_interval,
            flame=bool(default.flame or default.flame_path),
        )
    ordered = tuple(name for name in INSTRUMENTS if name in chosen)
    return Obs(names=ordered, out=out, telemetry=telemetry)
