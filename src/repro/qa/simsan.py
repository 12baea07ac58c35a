""""SimSan": the opt-in runtime sanitizer, the ``simsan`` row of
``--obs`` (:mod:`repro.obs.instruments`).

Installs invariant hooks into a :class:`~repro.sim.engine.Simulator`
and the nodes/tables attached to it.  When *not* installed the
substrate pays nothing: the engine dispatches through ``step()``,
which carries the hook, only when ``sim.sanitizer`` is set, and the
table hook attributes (``pit.san`` / ``cs.san`` / ``bloom.san``)
default to ``None`` behind single attribute checks on cold-ish paths.

Select it like any instrument (``--obs simsan``, ``REPRO_OBS=simsan``,
``run_scenario(scenario, instruments=[SimSan()])``); its record is the
run's event-stream digest, the cross-process determinism check.

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
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List

__all__ = [
    "SanitizerError",
    "SimSan",
    "Violation",
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


class SimSan:
    """Invariant hooks over one simulator and its attached components.

    Parameters
    ----------
    mode:
        ``"raise"`` (default) raises :class:`SanitizerError` at the
        first violation; ``"collect"`` records violations in
        :attr:`violations` and keeps running (used by tests, the
        determinism check and the QA smoke run).
    bloom_check_interval:
        Inserts between bit-fill popcounts (1 = check every insert).
    """

    name = "simsan"

    def __init__(
        self,
        mode: str = "raise",
        bloom_check_interval: int = 64,
    ) -> None:
        if mode not in ("raise", "collect"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.bloom_check_interval = bloom_check_interval
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
    def install(self, run: Any) -> "SimSan":
        """Instrument protocol: attach to ``run.sim`` and to every node
        of ``run.network`` (when it has one)."""
        self.attach_engine(run.sim)
        if run.network is not None:
            for node in run.network.nodes.values():
                self.attach_node(node)
        return self

    def attach_engine(self, sim: Any) -> None:
        self._sim = sim
        sim.sanitizer = self
        for name in ("schedule", "schedule_at", "post_at"):
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

        # Both wrappers look the handler up on the node's class at call
        # time, not at install: a class-level shim installed later (the
        # layer profile's) is then called too.

        def send_wrapper(
            face: Any, packet: Any, delay: float = 0.0,
            _node: Any = node, _id: str = node_id,
        ) -> Any:
            self._node_sends[_id] += 1
            return type(_node).send(_node, face, packet, delay)

        node.send = send_wrapper

        def on_interest_wrapper(
            interest: Any, in_face: Any, _node: Any = node, _id: str = node_id,
        ) -> Any:
            before = self._disposition_count(_node, _id)
            result = type(_node).on_interest(_node, interest, in_face)
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
    def before_event(
        self, time: float, priority: int, callback: Any, args: tuple, now: float
    ) -> None:
        """Called by ``Simulator.step`` before each execution, with the
        popped entry's fields (the same for an :class:`Event` and a
        posted entry)."""
        self.events_seen += 1
        name = getattr(callback, "__qualname__", "?")
        if time < now:
            self._violation(
                "clock-regression",
                f"event {name} fires at {time!r} but the clock "
                f"is already at {now!r}",
            )
        descriptor = f"{time!r}|{priority}|{name}|{len(args)}".encode()
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

    def finalize(self) -> Dict[str, Any]:
        """Instrument protocol: the end-of-run checks of :meth:`finish`
        (which raise in ``raise`` mode), then the run's record: the
        event-stream digest and event count, plus the violations in
        ``collect`` mode."""
        violations = self.finish()
        record: Dict[str, Any] = {"digest": self.stream_digest(), "events": self.events_seen}
        if self.mode == "collect":
            record["violations"] = [asdict(violation) for violation in violations]
        return record

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
