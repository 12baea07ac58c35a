"""The NDN forwarder node and the access-point relay.

:class:`Node` implements vanilla NDN forwarding (CS -> PIT -> FIB on
Interest; PIT consume + reverse-path forward + cache on Data) with
overridable hooks, so TACTIC's router roles (:mod:`repro.core`) and the
baseline schemes (:mod:`repro.baselines`) subclass it and specialize
only what their protocol changes.

:class:`AccessPoint` is the layer-2-ish relay between wireless clients
and their edge router.  It does *not* aggregate (tag handling is
per-request), but it does fold its identity hash into each passing
Interest's observed access path — the rolling hash the edge router
compares against the tag's ``APu`` field (Section 4.A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.crypto.cost_model import ComputationCostModel, ZERO_COST_MODEL
from repro.crypto.hashing import entity_identity_hash, xor_fold
from repro.ndn.cs import ContentStore
from repro.ndn.fib import Fib
from repro.ndn.link import Face
from repro.ndn.name import Name
from repro.ndn.packets import Data, Interest, Nack, Packet, packet_span_id
from repro.ndn.pit import Pit, PitRecord
from repro.ndn.strategy import BestRouteStrategy
from repro.sim.engine import Simulator
from repro.sim.tracing import TraceHub


class Node:  # simlint: disable=SL014 (SimSan patches send/on_interest per instance)
    """A generic NDN forwarder.

    Parameters
    ----------
    sim:
        The simulator this node schedules against.
    node_id:
        Unique string identity (also hashed into access paths).
    cs_capacity:
        Content-store size in packets; 0 disables caching.
    pit_lifetime:
        Seconds a PIT entry stays alive without being satisfied.
    cost_model:
        Latency model for computation-based events; defaults to zero
        cost (substrate tests want deterministic timing — TACTIC runs
        install the paper's model).
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        cs_capacity: int = 1000,
        pit_lifetime: float = 2.0,
        cost_model: Optional[ComputationCostModel] = None,
        cs_policy: str = "lru",
        pit_capacity: int = 0,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.faces: List[Face] = []
        self.fib = Fib()
        self.pit = Pit(entry_lifetime=pit_lifetime, capacity=pit_capacity)
        self.cs = ContentStore(capacity=cs_capacity, policy=cs_policy)
        self.cost_model = cost_model or ZERO_COST_MODEL
        self.strategy = BestRouteStrategy()
        self.rng = sim.rng.stream(f"node:{node_id}")
        self.identity_hash = entity_identity_hash(node_id)
        self.interests_received = 0
        self.data_received = 0
        self.nacks_received = 0
        self.unroutable_drops = 0
        # Table-level observability hooks route through this node's
        # trace hub (the tables themselves are simulator-free).  The
        # bound methods early-out on `wants`, so runs with no telemetry
        # subscriber pay one attribute check per hook site.
        self.pit.on_timeout = self._trace_pit_timeout
        self.pit.on_aggregate = self._trace_pit_aggregate
        self.cs.on_hit = self._trace_cs_hit

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_face(self, face: Face) -> None:
        self.faces.append(face)

    def face_toward(self, node: "Node") -> Face:
        for face in self.faces:
            if face.peer is node:
                return face
        raise LookupError(f"{self.node_id} has no face toward {node.node_id}")

    # ------------------------------------------------------------------
    # Packet I/O
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, in_face: Face) -> None:
        """Entry point invoked by links on packet arrival.

        The dispatch tests ``type(...) is`` against Interest, then Data
        (the packet classes are never subclassed on the wire), so a hop
        makes no ``isinstance`` call; only a subclass takes the
        fallback.  The rx trace emissions are guarded on an actual
        subscriber being present — ``emit`` would early-out anyway, but
        only after the payload kwargs (including ``str(name)``) had
        been built.
        """
        trace = self.sim.trace
        cls = type(packet)
        if cls is not Interest and cls is not Data:
            cls = _wire_class(packet)
        if cls is Interest:
            self.interests_received += 1
            if trace._n_subs and trace.enabled:
                trace.emit(
                    "node.rx.interest", self.sim.now,
                    node=self.node_id, content=str(packet.name), nonce=packet.nonce,
                )
            self.on_interest(packet, in_face)
        elif cls is Data:
            self.data_received += 1
            if trace._n_subs and trace.enabled:
                trace.emit(
                    "node.rx.data", self.sim.now,
                    node=self.node_id, content=str(packet.name),
                    nack=packet.nack.reason.value if packet.nack else None,
                )
            self.on_data(packet, in_face)
        else:
            self.nacks_received += 1
            if trace._n_subs and trace.enabled:
                trace.emit(
                    "node.rx.nack", self.sim.now,
                    node=self.node_id, content=str(packet.name),
                    reason=packet.reason.value,
                )
            self.on_nack(packet, in_face)

    def send(self, face: Face, packet: Packet, delay: float = 0.0) -> None:
        """Send ``packet`` on ``face``, after an optional compute delay."""
        trace = self.sim.trace
        if trace._n_subs and trace.enabled:
            self._trace_tx(trace, packet, delay)
        if delay > 0.0:
            sim = self.sim
            sim.post_at(sim.now + delay, face.send, (packet,))
        else:
            face.send(packet)

    # ------------------------------------------------------------------
    # Trace emission (all sites early-out unless a subscriber wants them)
    # ------------------------------------------------------------------
    def _trace_tx(self, trace: TraceHub, packet: Packet, delay: float) -> None:
        now = self.sim.now
        if isinstance(packet, Interest):
            if trace.wants("node.tx.interest"):
                trace.emit(
                    "node.tx.interest", now,
                    node=self.node_id, content=str(packet.name), nonce=packet.nonce,
                )
        elif isinstance(packet, Data):
            if trace.wants("node.tx.data"):
                trace.emit(
                    "node.tx.data", now,
                    node=self.node_id, content=str(packet.name),
                    nack=packet.nack.reason.value if packet.nack else None,
                )
        else:
            if trace.wants("node.tx.nack"):
                trace.emit(
                    "node.tx.nack", now,
                    node=self.node_id, content=str(packet.name),
                    reason=packet.reason.value,
                )
        if delay > 0.0 and trace.wants("span.compute"):
            span = packet_span_id(packet)
            if span:
                trace.emit(
                    "span.compute", now,
                    span=span, node=self.node_id, dur=delay,
                )

    def _trace_pit_timeout(self, name: Name, records: int) -> None:
        trace = self.sim.trace
        if trace.wants("pit.timeout"):
            trace.emit(
                "pit.timeout", self.sim.now,
                node=self.node_id, content=str(name), records=records,
            )

    def _trace_pit_aggregate(self, name: Name, record: PitRecord) -> None:
        trace = self.sim.trace
        if not trace._n_subs:
            return
        if trace.wants("pit.aggregate"):
            trace.emit(
                "pit.aggregate", self.sim.now,
                node=self.node_id, content=str(name), nonce=record.nonce,
            )
        # The aggregated span parks here until content arrives; the mark
        # lets span reconstruction attribute the wait to this node.
        if record.nonce and trace.wants("span.pit.wait"):
            trace.emit(
                "span.pit.wait", self.sim.now,
                span=record.nonce, node=self.node_id,
            )

    def _trace_cs_hit(self, name: Name) -> None:
        trace = self.sim.trace
        if trace._n_subs and trace.wants("cs.hit"):
            trace.emit(
                "cs.hit", self.sim.now,
                node=self.node_id, content=str(name),
            )

    def trace_span_serve(self, interest: Interest) -> None:
        """Mark where an Interest span turned around (cache or origin).

        Call sites test ``sim.trace._n_subs`` first, so a run with no
        subscriber never enters it.
        """
        trace = self.sim.trace
        if interest.nonce and trace.wants("span.serve"):
            trace.emit(
                "span.serve", self.sim.now,
                span=interest.nonce, node=self.node_id,
            )

    # ------------------------------------------------------------------
    # Default NDN behaviour (overridden by protocol roles)
    # ------------------------------------------------------------------
    def on_interest(self, interest: Interest, in_face: Face) -> None:
        cached = self.cs.lookup(interest.name, now=self.sim.now)
        if cached is not None:
            cached.tag = interest.tag
            cached.span_id = interest.nonce
            if self.sim.trace._n_subs:
                self.trace_span_serve(interest)
            self.send(in_face, cached)
            return
        record = PitRecord(
            tag=interest.tag,
            flag_f=interest.flag_f,
            in_face=in_face,
            arrived_at=self.sim.now,
            requester_id=interest.requester_id,
            nonce=interest.nonce,
        )
        if self.pit.insert(interest.name, record, now=self.sim.now):
            self.forward_interest(interest, in_face)

    def forward_interest(
        self, interest: Interest, in_face: Face, delay: float = 0.0
    ) -> bool:
        """Forward per the node's strategy; False when unroutable."""
        faces = self.strategy.select(
            self.fib.lookup_nexthops(interest.name), in_face, self.rng
        )
        if not faces:
            self.unroutable_drops += 1
            return False
        if len(faces) == 1:
            self.send(faces[0], interest, delay)
            return True
        for index, face in enumerate(faces):
            self.send(face, interest if index == 0 else interest.copy(), delay)
        return True

    def on_data(self, data: Data, in_face: Face) -> None:
        entry = self.pit.consume(data.name, now=self.sim.now)
        if entry is not None:
            for record in entry.records:
                out = data.copy()
                out.tag = record.tag
                out.span_id = record.nonce
                self.send(record.in_face, out)
        # Last: the store takes the received packet itself and strips
        # its per-request fields (see docs/ARCHITECTURE.md, "Packet
        # ownership").
        if data.nack is None:
            self.cs.insert(data)

    def on_nack(self, nack: Nack, in_face: Face) -> None:
        """Default: NACKs terminate here (clients override)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.node_id}>"


def _wire_class(packet: Packet) -> type:
    """The packet class a subclass instance dispatches as."""
    for cls in (Interest, Data, Nack):
        if isinstance(packet, cls):
            return cls
    raise TypeError(f"unknown packet type: {type(packet)!r}")


@dataclass(slots=True)
class _ApPending:
    nonce: int
    tag_key: Optional[bytes]
    face: Face
    expires_at: float


class AccessPoint(Node):  # simlint: disable=SL014 (Node subclass; same patching)
    """Wireless access-point relay between clients and an edge router.

    Forwards every client Interest upstream without aggregation,
    XOR-folding its identity hash into the Interest's observed access
    path ("each intermediate entity, between u and her corresponding
    rE, adds its identity to the rolling hash").  Downstream traffic is
    demultiplexed back to the requesting client by tag (Data) or nonce
    (standalone NACK).
    """

    def __init__(self, sim: Simulator, node_id: str, pending_lifetime: float = 2.0) -> None:
        super().__init__(sim, node_id, cs_capacity=0)
        self.uplink: Optional[Face] = None
        self.pending_lifetime = pending_lifetime
        #: Keyed by the name's URI string, like the PIT and the store.
        self._pending: Dict[str, List[_ApPending]] = {}

    def set_uplink(self, face: Face) -> None:
        self.uplink = face

    def _purge(self, key: str) -> None:
        now = self.sim.now
        records = self._pending.get(key)
        if not records:
            return
        # Records append in arrival order with a fixed lifetime, so
        # expires_at is nondecreasing: if the oldest is live, all are —
        # the common case skips the rebuild entirely.
        if records[0].expires_at >= now:
            return
        live = [r for r in records if r.expires_at >= now]
        if live:
            self._pending[key] = live
        else:
            del self._pending[key]

    def on_interest(self, interest: Interest, in_face: Face) -> None:
        if self.uplink is None:
            raise RuntimeError(f"access point {self.node_id} has no uplink")
        if in_face is self.uplink:
            self.unroutable_drops += 1
            return
        name = interest.name
        if type(name) is not Name:
            name = Name(name)
        key = name._uri
        self._purge(key)
        tag_key = interest.tag._cache_key if interest.tag is not None else None
        self._pending.setdefault(key, []).append(
            _ApPending(
                nonce=interest.nonce,
                tag_key=tag_key,
                face=in_face,
                expires_at=self.sim.now + self.pending_lifetime,
            )
        )
        out = interest.copy()
        out.observed_access_path = xor_fold(
            out.observed_access_path, self.identity_hash
        )
        self.send(self.uplink, out)

    def on_data(self, data: Data, in_face: Face) -> None:
        name = data.name
        if type(name) is not Name:
            name = Name(name)
        key = name._uri
        self._purge(key)
        records = self._pending.get(key)
        if not records:
            return
        if len(records) == 1:
            # One requester: it matches whatever the tag, and gets the
            # received packet itself (the AP keeps no reference to it).
            del self._pending[key]
            data.span_id = records[0].nonce
            self.send(records[0].face, data)
            return
        if data.tag is not None:
            tag_key = data.tag._cache_key
            matched = [r for r in records if r.tag_key == tag_key]
            if not matched:
                matched = records[:]
        else:
            matched = records[:]
        remaining = [r for r in records if r not in matched]
        if remaining:
            self._pending[key] = remaining
        else:
            self._pending.pop(key, None)
        # The AP caches nothing and keeps no reference to the packet, so
        # the last record gets the received packet itself.
        last = len(matched) - 1
        for index, record in enumerate(matched):
            out = data if index == last else data.copy()
            out.span_id = record.nonce
            self.send(record.face, out)

    def on_nack(self, nack: Nack, in_face: Face) -> None:
        key = Name(nack.name)._uri
        self._purge(key)
        records = self._pending.get(key, [])
        matched = [r for r in records if r.nonce == nack.nonce] or records[:]
        remaining = [r for r in records if r not in matched]
        if remaining:
            self._pending[key] = remaining
        else:
            self._pending.pop(key, None)
        for record in matched:
            self.send(record.face, nack.copy())
