"""Compact, picklable run summaries.

A :class:`RunSummary` carries every quantity the paper's figures and
tables read off a run — and nothing else.  A live
:class:`~repro.experiments.runner.RunResult` drags the whole simulation
behind it (network, nodes, scheduler heap); a summary is a few KB of
plain data, so worker processes can hand it back over a pipe and the
run cache can round-trip it through JSON exactly.

The accessor methods mirror the :class:`RunResult` API
(``tag_rates()``, ``client_delivery_ratio()``, ``operation_counts()``
…), so sweep metric extractors and figure reducers work unchanged
against either object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.core.metrics import OpCounters

#: The scalar OpCounters fields a summary carries per router class
#: (``reset_intervals`` travels separately; ``requests_since_reset`` is
#: always zero after merging).
OP_FIELDS = (
    "bf_lookups",
    "bf_inserts",
    "signature_verifications",
    "client_sig_verifications",
    "bf_resets",
    "precheck_drops",
    "access_path_drops",
    "nacks_issued",
)


@dataclass
class RunSummary:
    """Every figure/table quantity from one run, as plain data.

    Fields marked ``compare=False`` (wall-clock, cache provenance) are
    excluded from equality, so a cache hit, a serial run, and a parallel
    run of the same spec compare equal iff their *measurements* agree.
    """

    label: str = ""
    scheme: str = "tactic"
    seed: int = 0
    duration: float = 0.0
    num_clients: int = 0
    num_attackers: int = 0
    chunk_size_bytes: int = 0
    # --- Table IV --------------------------------------------------------
    client_requested: int = 0
    client_received: int = 0
    client_usable: int = 0
    attacker_requested: int = 0
    attacker_received: int = 0
    attacker_usable: int = 0
    # --- Fig. 5 ----------------------------------------------------------
    mean_latency_s: Optional[float] = None
    latency_bucket: float = 1.0
    latency_points: Tuple[Tuple[float, float], ...] = ()
    # --- Fig. 6 ----------------------------------------------------------
    tag_request_rate: float = 0.0
    tag_receive_rate: float = 0.0
    # --- Fig. 7 / Fig. 8 / Table V ---------------------------------------
    edge_ops: Dict[str, int] = field(default_factory=dict)
    core_ops: Dict[str, int] = field(default_factory=dict)
    edge_reset_intervals: Tuple[int, ...] = ()
    core_reset_intervals: Tuple[int, ...] = ()
    # --- Table II / network level ----------------------------------------
    origin_chunks_served: int = 0
    total_network_bytes: int = 0
    total_network_drops: int = 0
    events_executed: int = 0
    # --- Provenance (excluded from equality) -----------------------------
    wall_seconds: float = field(default=0.0, compare=False)
    cached: bool = field(default=False, compare=False)
    worker_pid: int = field(default=0, compare=False)
    #: Each instrument's per-run record by name (``--obs``; see
    #: :mod:`repro.obs.instruments`): the SimSan event digest, the
    #: telemetry envelope, audit summary, statescope record, flight-
    #: recorder bundle list, and so on.  Excluded from equality so
    #: observed and unobserved runs of one spec still compare equal.
    instruments: Dict[str, Dict[str, Any]] = field(default_factory=dict, compare=False)

    # ------------------------------------------------------------------
    # RunResult-compatible accessors
    # ------------------------------------------------------------------
    def client_delivery_ratio(self) -> float:
        if self.client_requested == 0:
            return 0.0
        return self.client_received / self.client_requested

    def attacker_delivery_ratio(self) -> float:
        if self.attacker_requested == 0:
            return 0.0
        return self.attacker_received / self.attacker_requested

    def usable_ratio(self, attackers: bool = False) -> float:
        requested = self.attacker_requested if attackers else self.client_requested
        usable = self.attacker_usable if attackers else self.client_usable
        if requested == 0:
            return 0.0
        return usable / requested

    def total_requested(self, attackers: bool = False) -> int:
        return self.attacker_requested if attackers else self.client_requested

    def total_received(self, attackers: bool = False) -> int:
        return self.attacker_received if attackers else self.client_received

    def delivery_table_row(self) -> Dict[str, float]:
        return {
            "client_requested": self.client_requested,
            "client_received": self.client_received,
            "client_ratio": self.client_delivery_ratio(),
            "attacker_requested": self.attacker_requested,
            "attacker_received": self.attacker_received,
            "attacker_ratio": self.attacker_delivery_ratio(),
        }

    def latency_series(self, bucket: float = 1.0) -> List[Tuple[float, float]]:
        if bucket != self.latency_bucket:
            raise ValueError(
                f"summary carries the latency series at bucket="
                f"{self.latency_bucket}, not {bucket}; set "
                f"ScenarioSpec.latency_bucket before running"
            )
        return [tuple(point) for point in self.latency_points]

    def mean_latency(self) -> Optional[float]:
        return self.mean_latency_s

    def tag_rates(self) -> Tuple[float, float]:
        return (self.tag_request_rate, self.tag_receive_rate)

    def operation_counts(self, edge: bool) -> OpCounters:
        ops = self.edge_ops if edge else self.core_ops
        intervals = self.edge_reset_intervals if edge else self.core_reset_intervals
        return OpCounters(
            **{name: ops.get(name, 0) for name in OP_FIELDS},
            reset_intervals=list(intervals),
        )

    def reset_threshold(self, edge: bool) -> Optional[float]:
        intervals = self.edge_reset_intervals if edge else self.core_reset_intervals
        if not intervals:
            return None
        return sum(intervals) / len(intervals)

    def total_bf_resets(self, edge: bool) -> int:
        ops = self.edge_ops if edge else self.core_ops
        return ops.get("bf_resets", 0)

    def network_bytes(self) -> int:
        return self.total_network_bytes

    def network_drops(self) -> int:
        return self.total_network_drops

    # ------------------------------------------------------------------
    # Comparison / serialisation
    # ------------------------------------------------------------------
    def metrics_dict(self) -> Dict[str, Any]:
        """Every *deterministic* quantity as one flat dict.

        Provenance fields (wall-clock, pid, cache flag) are excluded:
        two runs of the same spec — serial, parallel, or cache-hit —
        must produce identical dicts.
        """
        out: Dict[str, Any] = {}
        for spec in fields(self):
            if not spec.compare:
                continue
            value = getattr(self, spec.name)
            if isinstance(value, dict):
                for key in sorted(value):
                    out[f"{spec.name}.{key}"] = value[key]
            else:
                out[spec.name] = value
        return out

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "scheme": self.scheme,
            "seed": self.seed,
            "duration": self.duration,
            "num_clients": self.num_clients,
            "num_attackers": self.num_attackers,
            "chunk_size_bytes": self.chunk_size_bytes,
            "client_requested": self.client_requested,
            "client_received": self.client_received,
            "client_usable": self.client_usable,
            "attacker_requested": self.attacker_requested,
            "attacker_received": self.attacker_received,
            "attacker_usable": self.attacker_usable,
            "mean_latency_s": self.mean_latency_s,
            "latency_bucket": self.latency_bucket,
            "latency_points": [list(point) for point in self.latency_points],
            "tag_request_rate": self.tag_request_rate,
            "tag_receive_rate": self.tag_receive_rate,
            "edge_ops": dict(self.edge_ops),
            "core_ops": dict(self.core_ops),
            "edge_reset_intervals": list(self.edge_reset_intervals),
            "core_reset_intervals": list(self.core_reset_intervals),
            "origin_chunks_served": self.origin_chunks_served,
            "total_network_bytes": self.total_network_bytes,
            "total_network_drops": self.total_network_drops,
            "events_executed": self.events_executed,
            "wall_seconds": self.wall_seconds,
            "instruments": dict(self.instruments),
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "RunSummary":
        mean = payload["mean_latency_s"]
        return cls(
            label=str(payload["label"]),
            scheme=str(payload["scheme"]),
            seed=int(payload["seed"]),
            duration=float(payload["duration"]),
            num_clients=int(payload["num_clients"]),
            num_attackers=int(payload["num_attackers"]),
            chunk_size_bytes=int(payload["chunk_size_bytes"]),
            client_requested=int(payload["client_requested"]),
            client_received=int(payload["client_received"]),
            client_usable=int(payload["client_usable"]),
            attacker_requested=int(payload["attacker_requested"]),
            attacker_received=int(payload["attacker_received"]),
            attacker_usable=int(payload["attacker_usable"]),
            mean_latency_s=None if mean is None else float(mean),
            latency_bucket=float(payload["latency_bucket"]),
            latency_points=tuple(
                (float(when), float(value))
                for when, value in payload["latency_points"]
            ),
            tag_request_rate=float(payload["tag_request_rate"]),
            tag_receive_rate=float(payload["tag_receive_rate"]),
            edge_ops={key: int(val) for key, val in payload["edge_ops"].items()},
            core_ops={key: int(val) for key, val in payload["core_ops"].items()},
            edge_reset_intervals=tuple(
                int(val) for val in payload["edge_reset_intervals"]
            ),
            core_reset_intervals=tuple(
                int(val) for val in payload["core_reset_intervals"]
            ),
            origin_chunks_served=int(payload["origin_chunks_served"]),
            total_network_bytes=int(payload["total_network_bytes"]),
            total_network_drops=int(payload["total_network_drops"]),
            events_executed=int(payload["events_executed"]),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            instruments=dict(payload.get("instruments") or {}),
        )


def _op_dict(counters: OpCounters) -> Dict[str, int]:
    return {name: getattr(counters, name) for name in OP_FIELDS}


def summarize(result: Any, latency_bucket: float = 1.0) -> RunSummary:
    """Extract a :class:`RunSummary` from a live ``RunResult``."""
    edge = result.metrics.merged_counters(edge=True)
    core = result.metrics.merged_counters(edge=False)
    request_rate, receive_rate = result.tag_rates()
    return RunSummary(
        label=result.scenario.label,
        scheme=result.scenario.scheme,
        seed=result.config.seed,
        duration=result.config.duration,
        num_clients=len(result.clients),
        num_attackers=len(result.attackers),
        chunk_size_bytes=result.config.chunk_size_bytes,
        client_requested=result.metrics.total_requested(False),
        client_received=result.metrics.total_received(False),
        client_usable=result.metrics.total_usable(False),
        attacker_requested=result.metrics.total_requested(True),
        attacker_received=result.metrics.total_received(True),
        attacker_usable=result.metrics.total_usable(True),
        mean_latency_s=result.mean_latency(),
        latency_bucket=latency_bucket,
        latency_points=tuple(
            (when, value) for when, value in result.latency_series(latency_bucket)
        ),
        tag_request_rate=request_rate,
        tag_receive_rate=receive_rate,
        edge_ops=_op_dict(edge),
        core_ops=_op_dict(core),
        edge_reset_intervals=tuple(edge.reset_intervals),
        core_reset_intervals=tuple(core.reset_intervals),
        origin_chunks_served=sum(p.stats.chunks_served for p in result.providers),
        total_network_bytes=result.network_bytes(),
        total_network_drops=result.network_drops(),
        events_executed=result.sim.events_executed,
        wall_seconds=result.wall_seconds,
        instruments=dict(result.instruments),
    )
