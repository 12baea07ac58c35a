"""The ``telemetry`` instrument: one run's labeled metrics.

``--obs telemetry`` installs a :class:`TelemetrySession` on every run.
At finalize it bridges the run's router
:class:`~repro.core.metrics.OpCounters`, user totals and client
latencies (and, with the ``audit`` row, its decision tallies) into a
fresh :class:`~repro.obs.metrics.MetricsRegistry`, and returns a record
that also carries what the selected peers measured: the ``samples``
series, the ``profile`` layer report, the ``flame`` sample summary and
the ``statescope`` record.  The engine folds the records in submission
order (:func:`merge_telemetry`) and writes ``<obs-out>/telemetry.json``
(:func:`telemetry_report`): the fleet snapshot and every run's record.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

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


class TelemetrySession:
    """The ``telemetry`` row's live object: one run's metrics registry
    and the bridges that fill it at finalize."""

    name = "telemetry"

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.run = None

    def install(self, run) -> "TelemetrySession":
        """Instrument protocol: keep the run; the bridges read its
        metrics collector and its audit peer at finalize."""
        self.run = run
        return self

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def _bridge_collector(self) -> None:
        """Router OpCounters and user totals become labeled counters."""
        collector = self.run.metrics
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
        audit = self.run.instruments.get("audit")
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

    def finalize(self) -> dict:
        """Bridge counters and return the run record: this run's
        metrics plus whatever the selected peers measured (sampled
        series, layer profile, stack samples, state record).  Peers
        install after telemetry, so they have all finalized here."""
        self._bridge_collector()
        self._bridge_audit()
        run = self.run
        samples = run.instruments.get("samples")
        profile = run.instruments.get("profile")
        flame = run.instruments.get("flame")
        statescope = run.instruments.get("statescope")
        return {
            "label": run.label,
            "wall_seconds": run.wall_seconds,
            "virtual_seconds": run.sim.now,
            "events_executed": run.sim.events_executed,
            "metrics": self.registry.snapshot(),
            "samples": samples.series_dict() if samples is not None else [],
            "profile": profile.report() if profile is not None else None,
            "flame": flame.report() if flame is not None else None,
            "statescope": statescope.record() if statescope is not None else None,
        }


# ----------------------------------------------------------------------
# Fleet merge and report (the telemetry row of repro.obs.instruments)
# ----------------------------------------------------------------------
def merge_telemetry(into: dict, record: dict) -> dict:
    """Fold one run's record into the fleet view, in submission order:
    its metrics snapshot merges into ``into["registry"]`` (gauge
    last-write-wins stays deterministic) and the record joins
    ``into["runs"]``."""
    metrics = record.get("metrics")
    registry = into.setdefault("registry", MetricsRegistry())
    if metrics:
        registry.merge_snapshot(metrics)
    into.setdefault("runs", []).append(record)
    return into


def telemetry_report(merged: dict, figure: str = "", jobs: int = 1) -> dict:
    """``<obs-out>/telemetry.json``: the whole-fleet metrics snapshot
    (the engine's exec counters, ``merged["exec"]``, folded with every
    run's metrics) and every run's record."""
    registry = MetricsRegistry()
    for part in (merged.get("exec"), merged.get("registry")):
        if part is not None:
            registry.merge(part)
    return {"metrics": registry.snapshot(), "runs": merged.get("runs", [])}
