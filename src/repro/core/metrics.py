"""Measurement: per-router operation counters and global collectors.

The evaluation criteria (Section 8.A):

- user-based — average content-retrieval latency, request satisfaction
  ratio, tag statistics (requested/received tags);
- network-based — computational overhead (BF insertions, lookups,
  signature verifications) and the BF reset threshold (requests a
  router receives before its filter saturates and resets).

:class:`OpCounters` hangs off every TACTIC router; :class:`UserStats`
off every client/attacker; :class:`MetricsCollector` aggregates both
into the figures' series and the tables' cells.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class OpCounters:
    """Computation-event counters for one router (Fig. 7 / Fig. 8)."""

    bf_lookups: int = 0
    bf_inserts: int = 0
    signature_verifications: int = 0
    #: Per-request client-signature checks (only in the expensive
    #: authentication mode the access path replaces).
    client_sig_verifications: int = 0
    bf_resets: int = 0
    precheck_drops: int = 0
    access_path_drops: int = 0
    nacks_issued: int = 0
    #: Interests processed since the last BF reset (routers bump it on
    #: every Interest), and the completed intervals (the paper's
    #: "number of requests for a BF reset").
    requests_since_reset: int = 0
    reset_intervals: List[int] = field(default_factory=list)

    def note_reset(self) -> None:
        self.bf_resets += 1
        self.reset_intervals.append(self.requests_since_reset)
        self.requests_since_reset = 0

    def merged_with(self, other: "OpCounters") -> "OpCounters":
        return OpCounters(
            bf_lookups=self.bf_lookups + other.bf_lookups,
            bf_inserts=self.bf_inserts + other.bf_inserts,
            signature_verifications=(
                self.signature_verifications + other.signature_verifications
            ),
            client_sig_verifications=(
                self.client_sig_verifications + other.client_sig_verifications
            ),
            bf_resets=self.bf_resets + other.bf_resets,
            precheck_drops=self.precheck_drops + other.precheck_drops,
            access_path_drops=self.access_path_drops + other.access_path_drops,
            nacks_issued=self.nacks_issued + other.nacks_issued,
            requests_since_reset=0,
            reset_intervals=self.reset_intervals + other.reset_intervals,
        )


@dataclass
class UserStats:
    """Per-user workload outcomes (Table IV, Fig. 5, Fig. 6)."""

    user_id: str
    is_attacker: bool = False
    chunks_requested: int = 0
    chunks_received: int = 0
    #: Chunks the user could actually *consume* (decrypt).  Equal to
    #: ``chunks_received`` under TACTIC (delivery implies authorization);
    #: lower under client-side schemes where undecryptable content is
    #: delivered anyway.
    chunks_usable: int = 0
    nacks_received: int = 0
    timeouts: int = 0
    retransmissions: int = 0
    tags_requested: int = 0
    tags_received: int = 0
    #: (completion time, latency) samples for satisfied requests.
    latency_samples: List[Tuple[float, float]] = field(default_factory=list)
    #: timestamps of tag request / tag receive events (Fig. 6 rates).
    tag_request_times: List[float] = field(default_factory=list)
    tag_receive_times: List[float] = field(default_factory=list)

    def delivery_ratio(self) -> float:
        if self.chunks_requested == 0:
            return 0.0
        return self.chunks_received / self.chunks_requested


class MetricsCollector:
    """Aggregates user and router measurements for one simulation run."""

    def __init__(self) -> None:
        self.users: Dict[str, UserStats] = {}
        self.edge_counters: Dict[str, OpCounters] = {}
        self.core_counters: Dict[str, OpCounters] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def user(self, user_id: str, is_attacker: bool = False) -> UserStats:
        stats = self.users.get(user_id)
        if stats is None:
            stats = UserStats(user_id=user_id, is_attacker=is_attacker)
            self.users[user_id] = stats
        return stats

    def register_router(self, node_id: str, counters: OpCounters, is_edge: bool) -> None:
        target = self.edge_counters if is_edge else self.core_counters
        target[node_id] = counters

    # ------------------------------------------------------------------
    # Aggregation: Table IV
    # ------------------------------------------------------------------
    def _population(self, attackers: bool) -> List[UserStats]:
        return [u for u in self.users.values() if u.is_attacker == attackers]

    def total_requested(self, attackers: bool = False) -> int:
        return sum(u.chunks_requested for u in self._population(attackers))

    def total_received(self, attackers: bool = False) -> int:
        return sum(u.chunks_received for u in self._population(attackers))

    def total_usable(self, attackers: bool = False) -> int:
        return sum(u.chunks_usable for u in self._population(attackers))

    def delivery_ratio(self, attackers: bool = False) -> float:
        requested = self.total_requested(attackers)
        if requested == 0:
            return 0.0
        return self.total_received(attackers) / requested

    def usable_ratio(self, attackers: bool = False) -> float:
        """Fraction of requested chunks actually consumable (decryptable)."""
        requested = self.total_requested(attackers)
        if requested == 0:
            return 0.0
        return self.total_usable(attackers) / requested

    # ------------------------------------------------------------------
    # Aggregation: Fig. 5 (per-second mean latency)
    # ------------------------------------------------------------------
    def latency_series(self, bucket: float = 1.0) -> List[Tuple[float, float]]:
        """Per-bucket mean retrieval latency over legitimate clients."""
        sums: Dict[int, float] = defaultdict(float)
        counts: Dict[int, int] = defaultdict(int)
        for user in self._population(attackers=False):
            for when, latency in user.latency_samples:
                index = int(when // bucket)
                sums[index] += latency
                counts[index] += 1
        return [
            (index * bucket, sums[index] / counts[index])
            for index in sorted(sums)
        ]

    def mean_latency(self) -> Optional[float]:
        total, count = 0.0, 0
        for user in self._population(attackers=False):
            for _, latency in user.latency_samples:
                total += latency
                count += 1
        return total / count if count else None

    # ------------------------------------------------------------------
    # Aggregation: Fig. 6 (tag rates)
    # ------------------------------------------------------------------
    def tag_rates(self, duration: float) -> Tuple[float, float]:
        """(tag-request rate Q, tag-receive rate R) per second, clients only."""
        if duration <= 0:
            return (0.0, 0.0)
        clients = self._population(attackers=False)
        requested = sum(u.tags_requested for u in clients)
        received = sum(u.tags_received for u in clients)
        return (requested / duration, received / duration)

    # ------------------------------------------------------------------
    # Aggregation: Fig. 7 (operation counts) and Fig. 8 / Table V
    # ------------------------------------------------------------------
    def merged_counters(self, edge: bool) -> OpCounters:
        source = self.edge_counters if edge else self.core_counters
        merged = OpCounters()
        for counters in source.values():
            merged = merged.merged_with(counters)
        return merged

    def reset_threshold(self, edge: bool) -> Optional[float]:
        """Mean number of requests a router sees before one BF reset."""
        intervals = self.merged_counters(edge).reset_intervals
        if not intervals:
            return None
        return sum(intervals) / len(intervals)

    def total_bf_resets(self, edge: bool) -> int:
        return self.merged_counters(edge).bf_resets
