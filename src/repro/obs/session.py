"""The ``telemetry`` instrument: one run's counters as plain data.

``--obs telemetry`` installs a :class:`TelemetrySession` on every run.
At finalize it reads the run's router
:class:`~repro.core.metrics.OpCounters`, user totals and client
latencies into three plain dicts and returns them with the run's
label, wall and virtual seconds and event count.  The engine folds the
records in submission order (:func:`merge_telemetry`) and writes
``<obs-out>/telemetry.json`` (:func:`telemetry_report`): that engine's
own :class:`~repro.exec.engine.ExecStats`, the fleet sums and every
run's record.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict
from typing import Any, Dict

from repro.exec.summary import OP_FIELDS

#: UserStats fields counted per population in ``user_outcomes``.
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

#: Upper bounds (seconds) of the ``client_latency`` buckets; a sample
#: lands in the first bucket whose bound it does not exceed, or in
#: ``"+Inf"``.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)
_BUCKET_KEYS = tuple(repr(bound) for bound in LATENCY_BUCKETS) + ("+Inf",)

#: The record's count dicts, summed key by key across a fleet.
COUNT_KEYS = ("router_ops", "user_outcomes", "client_latency")


class TelemetrySession:
    """The ``telemetry`` row's live object: reads one run's counters
    at finalize."""

    name = "telemetry"

    def __init__(self) -> None:
        self.run = None

    def install(self, run) -> "TelemetrySession":
        """Instrument protocol: keep the run; its metrics collector is
        read at finalize."""
        self.run = run
        return self

    def finalize(self) -> dict:
        """The run record: ``router_ops`` (``{node: {"role": …, op:
        count}}``), ``user_outcomes`` (``{population: {kind: count}}``)
        and ``client_latency`` (count, sum and per-bucket counts of the
        legitimate clients' latency samples)."""
        run = self.run
        router_ops: Dict[str, Dict[str, Any]] = {}
        user_outcomes: Dict[str, Dict[str, int]] = {}
        buckets = dict.fromkeys(_BUCKET_KEYS, 0)
        latency = {"count": 0, "sum": 0.0, "buckets": buckets}
        collector = run.metrics
        if collector is not None:
            for role, counters_map in (
                ("edge", collector.edge_counters),
                ("core", collector.core_counters),
            ):
                for node_id, counters in counters_map.items():
                    router_ops[node_id] = {
                        "role": role,
                        **{op: getattr(counters, op) for op in OP_FIELDS},
                    }
            for stats in collector.users.values():
                population = "attackers" if stats.is_attacker else "clients"
                outcomes = user_outcomes.setdefault(
                    population, dict.fromkeys(USER_OUTCOMES, 0)
                )
                for kind in USER_OUTCOMES:
                    outcomes[kind] += getattr(stats, kind)
                if not stats.is_attacker:
                    for _, sample in stats.latency_samples:
                        latency["count"] += 1
                        latency["sum"] += sample
                        buckets[_BUCKET_KEYS[bisect_left(LATENCY_BUCKETS, sample)]] += 1
        return {
            "label": run.label,
            "wall_seconds": run.wall_seconds,
            "virtual_seconds": run.sim.now,
            "events_executed": run.sim.events_executed,
            "router_ops": router_ops,
            "user_outcomes": user_outcomes,
            "client_latency": latency,
        }


# ----------------------------------------------------------------------
# Fleet merge and report (the telemetry row of repro.obs.instruments)
# ----------------------------------------------------------------------
def _add_counts(into: Dict[str, Any], counts: Dict[str, Any]) -> None:
    """Add ``counts`` into ``into`` key by key, recursing into nested
    dicts; a string (a router's role) is copied, not added."""
    for key, value in counts.items():
        if isinstance(value, dict):
            _add_counts(into.setdefault(key, {}), value)
        elif isinstance(value, str):
            into[key] = value
        else:
            into[key] = into.get(key, 0) + value


def merge_telemetry(into: dict, record: dict) -> dict:
    """Fold one run's record into the fleet view, in submission order:
    its count dicts add into ``into``'s and the record joins
    ``into["runs"]``."""
    for key in COUNT_KEYS:
        _add_counts(into.setdefault(key, {}), record.get(key, {}))
    into.setdefault("runs", []).append(record)
    return into


def telemetry_report(merged: dict, figure: str = "", jobs: int = 1) -> dict:
    """``<obs-out>/telemetry.json``: the engine's exec counters
    (``merged["exec"]``, its :class:`~repro.exec.engine.ExecStats`), the
    fleet sums of every count dict and every run's record."""
    stats = merged.get("exec")
    return {
        "exec": asdict(stats) if stats is not None else {},
        **{key: merged.get(key, {}) for key in COUNT_KEYS},
        "runs": merged.get("runs", []),
    }
