""""SimSan": the opt-in runtime sanitizer.

Installs invariant hooks into a :class:`~repro.sim.engine.Simulator`
and the nodes/tables attached to it.  When *not* installed the
substrate pays nothing: the engine selects a sanitized run loop only
when ``sim.sanitizer`` is set, and the
table hook attributes (``pit.san`` / ``cs.san`` / ``bloom.san``)
default to ``None`` behind single attribute checks on cold-ish paths.

Enable per-process with ``REPRO_SIMSAN=1`` (the experiment runner
calls :func:`maybe_install` on every run) or install explicitly.

Checked invariants
------------------
- **Event-clock monotonicity** — every executed event carries a
  timestamp >= the current virtual clock; the event stream is also
  folded into a running BLAKE2 hash for double-run determinism checks
  (:mod:`repro.qa.determinism`).
- **PIT record conservation** — records inserted = records consumed +
  expired + dropped + still pending; a router that loses forwarding
  state without accounting for it (the stateless-forwarding-attack
  failure mode) trips this at :meth:`SimSan.finish`.
- **PIT/CS occupancy bounds** — capacity-limited tables never exceed
  their capacity; a capacity-0 content store stays empty.
- **Bloom-filter fill monotonicity** — the insert counter rises by
  exactly one per insert and the bit-fill ratio never decreases
  between resets (sampled every ``bloom_check_interval`` inserts; the
  popcount is O(m/8)).
- **Interest disposition** — every Interest a node receives must be
  *dispositioned* within its handler: forwarded or answered (a send),
  parked (PIT insert/aggregate), shed (rejection, unroutable or
  protocol drop counters), served from cache, or explicitly deferred
  (a scheduled continuation).  A handler that silently swallows an
  Interest — a black-hole — trips this immediately.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "SanitizerError",
    "SimSan",
    "Violation",
    "enabled",
    "maybe_install",
]

#: Events hashed per block; block digests let a determinism mismatch be
#: localised without storing the full stream.
HASH_BLOCK_EVENTS = 256


class SanitizerError(AssertionError):
    """An invariant the simulation substrate must uphold was violated."""


@dataclass(frozen=True)
class Violation:
    """One recorded invariant violation."""

    kind: str
    message: str
    time: float


@dataclass
class _PitTally:
    inserted: int = 0
    consumed: int = 0
    expired: int = 0
    dropped: int = 0
    rejected: int = 0


@dataclass
class _BloomState:
    count: int = 0
    fill: float = 0.0
    inserts_since_check: int = 0


def enabled() -> bool:
    """True when the ``REPRO_SIMSAN`` environment opt-in is set."""
    return os.environ.get("REPRO_SIMSAN", "").strip().lower() in (
        "1", "true", "on", "yes",
    )


def maybe_install(sim: Any, network: Any = None) -> Optional["SimSan"]:
    """Install a sanitizer iff ``REPRO_SIMSAN`` is on (runner hook)."""
    if not enabled():
        return None
    return SimSan().install(sim, network)


class SimSan:
    """Invariant hooks over one simulator and its attached components.

    Parameters
    ----------
    mode:
        ``"raise"`` (default) raises :class:`SanitizerError` at the
        first violation; ``"collect"`` records violations in
        :attr:`violations` and keeps running (used by tests and by the
        reporting CLI).
    bloom_check_interval:
        Inserts between bit-fill popcounts (1 = check every insert).
    hash_events:
        Fold every executed event into the determinism hash.
    """

    def __init__(
        self,
        mode: str = "raise",
        bloom_check_interval: int = 64,
        hash_events: bool = True,
    ) -> None:
        if mode not in ("raise", "collect"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.bloom_check_interval = bloom_check_interval
        self.hash_events = hash_events
        self.violations: List[Violation] = []
        self.events_seen = 0
        self._sim: Any = None
        self._pits: Dict[Any, _PitTally] = {}
        self._blooms: Dict[Any, _BloomState] = {}
        self._nodes: List[Any] = []
        self._node_sends: Dict[str, int] = {}
        self._node_drops: Dict[str, Callable[[], int]] = {}
        self._schedules = 0
        self._hasher = hashlib.blake2b(digest_size=16)
        self._block_hasher = hashlib.blake2b(digest_size=8)
        self._block_digests: List[str] = []
        self._finished = False
        #: Optional :class:`repro.obs.flightrec.FlightRecorder`; when
        #: set, the first violation dumps a post-mortem bundle before
        #: any raise, so the ring survives the abort.
        self.flightrec: Any = None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, sim: Any, network: Any = None) -> "SimSan":
        """Attach to the engine and (optionally) every network node."""
        self.attach_engine(sim)
        if network is not None:
            for node in network.nodes.values():
                self.attach_node(node)
        return self

    def attach_engine(self, sim: Any) -> None:
        self._sim = sim
        sim.sanitizer = self
        for name in ("schedule", "schedule_at"):
            original = getattr(sim, name)

            def wrapper(*args: Any, _orig: Any = original, **kwargs: Any) -> Any:
                self._schedules += 1
                return _orig(*args, **kwargs)

            setattr(sim, name, wrapper)

    def attach_node(self, node: Any) -> None:
        """Hook a node's tables and wrap its Interest handler."""
        self._nodes.append(node)
        pit = getattr(node, "pit", None)
        if pit is not None:
            pit.san = self
            self._pits.setdefault(pit, _PitTally())
        cs = getattr(node, "cs", None)
        if cs is not None:
            cs.san = self
        bloom = getattr(node, "bloom", None)
        if bloom is not None:
            self.attach_bloom(bloom)

        node_id = getattr(node, "node_id", repr(node))
        self._node_sends.setdefault(node_id, 0)
        self._node_drops[node_id] = self._drop_counter_reader(node)

        original_send = node.send

        def send_wrapper(
            face: Any, packet: Any, delay: float = 0.0,
            _orig: Any = original_send, _id: str = node_id,
        ) -> Any:
            self._node_sends[_id] += 1
            return _orig(face, packet, delay)

        node.send = send_wrapper

        original_on_interest = node.on_interest

        def on_interest_wrapper(
            interest: Any, in_face: Any,
            _orig: Any = original_on_interest, _node: Any = node,
            _id: str = node_id,
        ) -> Any:
            before = self._disposition_count(_node, _id)
            result = _orig(interest, in_face)
            if self._disposition_count(_node, _id) <= before:
                self._violation(
                    "interest-black-hole",
                    f"node {_id} received Interest {interest.name} and "
                    f"dispositioned nothing: not forwarded, answered, "
                    f"parked in the PIT, shed, or deferred",
                )
            return result

        node.on_interest = on_interest_wrapper

    def attach_bloom(self, bloom: Any) -> None:
        bloom.san = self
        self._blooms.setdefault(
            bloom, _BloomState(count=bloom.count, fill=bloom.fill_ratio())
        )

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def before_event(self, event: Any, now: float) -> None:
        """Called by the sanitized run loop before each execution."""
        self.events_seen += 1
        if event.time < now:
            self._violation(
                "clock-regression",
                f"event {event!r} fires at {event.time!r} but the clock "
                f"is already at {now!r}",
            )
        if self.hash_events:
            descriptor = (
                f"{event.time!r}|{event.priority}|"
                f"{getattr(event.callback, '__qualname__', '?')}|"
                f"{len(event.args)}"
            ).encode()
            self._hasher.update(descriptor)
            self._block_hasher.update(descriptor)
            if self.events_seen % HASH_BLOCK_EVENTS == 0:
                self._block_digests.append(self._block_hasher.hexdigest())
                self._block_hasher = hashlib.blake2b(digest_size=8)

    def stream_digest(self) -> str:
        """Hash of every executed event's (time, priority, callback)."""
        return self._hasher.hexdigest()

    def block_digests(self) -> List[str]:
        """Per-block digests (one per :data:`HASH_BLOCK_EVENTS` events)."""
        out = list(self._block_digests)
        if self.events_seen % HASH_BLOCK_EVENTS:
            out.append(self._block_hasher.hexdigest())
        return out

    # ------------------------------------------------------------------
    # PIT hooks
    # ------------------------------------------------------------------
    def pit_insert(self, pit: Any, aggregated: bool) -> None:
        tally = self._pits.setdefault(pit, _PitTally())
        tally.inserted += 1
        if pit.capacity and len(pit) > pit.capacity:
            self._violation(
                "pit-occupancy",
                f"PIT holds {len(pit)} entries, capacity {pit.capacity}",
            )

    def pit_reject(self, pit: Any) -> None:
        self._pits.setdefault(pit, _PitTally()).rejected += 1

    def pit_consume(self, pit: Any, entry: Any) -> None:
        self._pits.setdefault(pit, _PitTally()).consumed += len(entry.records)

    def pit_expire(self, pit: Any, records: int) -> None:
        self._pits.setdefault(pit, _PitTally()).expired += records

    def pit_drop(self, pit: Any, records: int) -> None:
        self._pits.setdefault(pit, _PitTally()).dropped += records

    # ------------------------------------------------------------------
    # CS / Bloom hooks
    # ------------------------------------------------------------------
    def cs_insert(self, cs: Any) -> None:
        if cs.capacity <= 0:
            if len(cs) > 0:
                self._violation(
                    "cs-occupancy",
                    "capacity-0 content store is holding packets",
                )
            return
        if len(cs) > cs.capacity:
            self._violation(
                "cs-occupancy",
                f"content store holds {len(cs)} packets, capacity "
                f"{cs.capacity}",
            )

    def bf_insert(self, bloom: Any) -> None:
        state = self._blooms.setdefault(bloom, _BloomState())
        if bloom.count != state.count + 1:
            self._violation(
                "bf-monotonicity",
                f"Bloom insert moved count {state.count} -> {bloom.count} "
                f"(expected {state.count + 1}); counter tampered between "
                f"inserts",
            )
        state.count = bloom.count
        state.inserts_since_check += 1
        if state.inserts_since_check >= self.bloom_check_interval:
            state.inserts_since_check = 0
            fill = bloom.fill_ratio()
            if fill < state.fill:
                self._violation(
                    "bf-monotonicity",
                    f"Bloom bit-fill fell {state.fill:.6f} -> {fill:.6f} "
                    f"without a reset; bits were cleared out-of-band",
                )
            state.fill = fill

    def bf_reset(self, bloom: Any) -> None:
        state = self._blooms.setdefault(bloom, _BloomState())
        state.count = 0
        state.fill = 0.0
        state.inserts_since_check = 0

    def check_bloom(self, bloom: Any) -> None:
        """Force an immediate fill check (tests; bypasses sampling)."""
        state = self._blooms.setdefault(bloom, _BloomState())
        fill = bloom.fill_ratio()
        if fill < state.fill:
            self._violation(
                "bf-monotonicity",
                f"Bloom bit-fill fell {state.fill:.6f} -> {fill:.6f} "
                f"without a reset; bits were cleared out-of-band",
            )
        state.fill = fill

    # ------------------------------------------------------------------
    # Disposition accounting
    # ------------------------------------------------------------------
    def _drop_counter_reader(self, node: Any) -> Callable[[], int]:
        """Protocol drop counters, when the node exposes OpCounters."""
        counters = getattr(node, "counters", None)
        if counters is None:
            return lambda: 0

        def read() -> int:
            return (
                getattr(counters, "precheck_drops", 0)
                + getattr(counters, "access_path_drops", 0)
                + getattr(counters, "nacks_issued", 0)
            )

        return read

    def _disposition_count(self, node: Any, node_id: str) -> int:
        total = self._node_sends[node_id] + self._schedules
        total += getattr(node, "unroutable_drops", 0)
        cs = getattr(node, "cs", None)
        if cs is not None:
            total += cs.hits
        pit = getattr(node, "pit", None)
        if pit is not None:
            tally = self._pits.setdefault(pit, _PitTally())
            total += tally.inserted + tally.rejected
        total += self._node_drops[node_id]()
        return total

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def check_tables(self) -> None:
        """Sweep every attached table's occupancy bound now."""
        for pit in self._pits:
            if pit.capacity and len(pit) > pit.capacity:
                self._violation(
                    "pit-occupancy",
                    f"PIT holds {len(pit)} entries, capacity {pit.capacity}",
                )

    def finish(self) -> List[Violation]:
        """End-of-run conservation checks; returns all violations.

        In ``raise`` mode the first end-of-run violation raises, like
        every other check.  Idempotent: callable once per run.
        """
        if self._finished:
            return list(self.violations)
        self._finished = True
        for pit, tally in self._pits.items():
            live = sum(len(e.records) for e in pit._entries.values())
            accounted = tally.consumed + tally.expired + tally.dropped + live
            if tally.inserted != accounted:
                self._violation(
                    "pit-conservation",
                    f"PIT records leaked: {tally.inserted} inserted but "
                    f"{tally.consumed} consumed + {tally.expired} expired "
                    f"+ {tally.dropped} dropped + {live} pending = "
                    f"{accounted}",
                )
        return list(self.violations)

    # ------------------------------------------------------------------
    # Violation sink
    # ------------------------------------------------------------------
    def _violation(self, kind: str, message: str) -> None:
        now = self._sim.now if self._sim is not None else 0.0
        violation = Violation(kind=kind, message=message, time=now)
        self.violations.append(violation)
        if self.flightrec is not None and len(self.violations) == 1:
            self.flightrec.dump(f"simsan-{kind}")
        if self.mode == "raise":
            raise SanitizerError(f"[{kind}] t={now:.6f}: {message}")
