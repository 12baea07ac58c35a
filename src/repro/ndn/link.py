"""Point-to-point duplex links with serialization, latency, and drop-tail.

Models what ns-3's point-to-point channel gives ndnSIM: each direction
of a link has a bandwidth (bits/s) and a propagation latency; packets
serialize one at a time, queueing behind earlier transmissions, and are
dropped when the queue exceeds a byte budget (drop-tail).  The paper's
parameters — 500 Mbps / 1 ms core links, 10 Mbps / 2 ms edge links —
are the defaults provided by :mod:`repro.topology`.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Dict, Optional

from repro.ndn.packets import packet_span_id
from repro.sim.engine import Simulator
from repro.sim.events import _event_counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.ndn.node import Node


class Face:
    """One endpoint of a link, owned by a node.

    A face is the NDN abstraction for "interface": nodes send packets
    out of faces, and receive packets along with the face they arrived
    on.  ``face.peer`` is the node on the other side of the link, and
    ``face.busy_until`` the virtual time this direction of the link
    finishes serializing its last queued packet.
    """

    _counter = 0

    __slots__ = ("face_id", "node", "link", "peer", "remote_face", "busy_until")

    @classmethod
    def reset_face_ids(cls) -> None:
        """Restart face-id allocation at 1 (see ``reset_nonce_counter``)."""
        cls._counter = 0

    def __init__(self, node: "Node", link: "Link") -> None:
        Face._counter += 1
        self.face_id = Face._counter
        self.node = node
        self.link = link
        #: Wired by :class:`Link` once both endpoints exist.  Plain
        #: slot attributes (not properties) so the forwarding fast path
        #: below pays attribute reads, not descriptor calls.
        self.peer: "Node" = None  # type: ignore[assignment]
        self.remote_face: "Face" = None  # type: ignore[assignment]
        self.busy_until = 0.0

    def send(self, packet: object) -> bool:
        """Transmit ``packet`` toward the peer; False if tail-dropped."""
        link = self.link
        sim = link.sim
        trace = sim.trace
        if not link.up or link.loss_rate > 0.0 or (trace._n_subs and trace.enabled):
            return link.transmit(packet, src=self.node)
        # Allocation-free fast path for the headline configuration
        # (link up, lossless, no trace subscriber): the same
        # serialization arithmetic as :meth:`Link.transmit` — identical
        # expression forms, so float results are bit-identical — minus
        # the branches that configuration can never take.  The drop-tail
        # case defers to the slow path, which recomputes the identical
        # backlog (no RNG, no state mutated yet) and handles counters
        # and span traces.  The delivery is pushed here, not through
        # ``sim.post_at``: the entry is the exact tuple ``post_at``
        # builds, ``seq`` drawn from the same shared counter, so
        # dispatch order is unchanged (docs/ARCHITECTURE.md, "The event
        # heap").
        now = sim.now
        size = packet.size_bytes()
        tx_time = size * 8.0 / link.bandwidth_bps
        busy = self.busy_until
        start = now if now >= busy else busy
        if (start - now) * link.bandwidth_bps / 8.0 > link.queue_bytes:
            return link.transmit(packet, src=self.node)
        self.busy_until = start + tx_time
        heappush(
            sim._heap,
            (
                start + tx_time + link.latency, 0, next(_event_counter),
                self.peer.receive, (packet, self.remote_face),
            ),
        )
        link.packets_sent += 1
        link.bytes_sent += size
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Face {self.face_id} {self.node.node_id}->{self.peer.node_id}>"


class Link:  # simlint: disable=SL014 (one per edge; observability hooks attach attributes)
    """A duplex point-to-point link between two nodes."""

    def __init__(
        self,
        sim: Simulator,
        node_a: "Node",
        node_b: "Node",
        bandwidth_bps: float = 500e6,
        latency: float = 0.001,
        queue_bytes: int = 64 * 1024,
        loss_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency = latency
        self.queue_bytes = queue_bytes
        #: Independent per-packet loss probability (wireless fading /
        #: interference model for edge links); 0 = lossless.
        self.loss_rate = loss_rate
        self._loss_rng = sim.rng.stream(f"link-loss:{node_a.node_id}:{node_b.node_id}")
        #: Administrative state: a down link silently drops everything
        #: (radio shadow / fiber cut); strategies skip its faces.
        self.up = True
        self._nodes = (node_a, node_b)
        self._faces: Dict[str, Face] = {
            node_a.node_id: Face(node_a, self),
            node_b.node_id: Face(node_b, self),
        }
        self.packets_sent = 0
        self.packets_dropped = 0
        self.bytes_sent = 0
        face_a = self._faces[node_a.node_id]
        face_b = self._faces[node_b.node_id]
        face_a.peer, face_a.remote_face = node_b, face_b
        face_b.peer, face_b.remote_face = node_a, face_a
        node_a.attach_face(face_a)
        node_b.attach_face(face_b)

    def face_of(self, node: "Node") -> Face:
        return self._faces[node.node_id]

    def other_endpoint(self, node: "Node") -> "Node":
        a, b = self._nodes
        return b if node is a else a

    def transmit(self, packet: object, src: "Node") -> bool:
        """Serialize ``packet`` from ``src`` toward the other endpoint.

        Returns False (and counts a drop) when the backlog in this
        direction exceeds the queue byte budget — the drop-tail
        behaviour responsible for the paper's "minimal amount of network
        packet losses".
        """
        if not self.up:
            self.packets_dropped += 1
            self._trace_span_drop(packet, src, "link-down")
            return False
        if self.loss_rate > 0.0 and self._loss_rng.random() < self.loss_rate:
            self.packets_dropped += 1
            self._trace_span_drop(packet, src, "loss")
            return False
        face = self._faces[src.node_id]
        now = self.sim.now
        size = packet.size_bytes()
        tx_time = size * 8.0 / self.bandwidth_bps
        start = max(now, face.busy_until)
        backlog_bytes = (start - now) * self.bandwidth_bps / 8.0
        if backlog_bytes > self.queue_bytes:
            self.packets_dropped += 1
            if self.sim.trace.enabled:
                self.sim.trace.emit(
                    "link.drop", now,
                    src=src.node_id, dst=face.peer.node_id,
                    size=size,
                )
            self._trace_span_drop(packet, src, "queue-overflow")
            return False
        face.busy_until = start + tx_time
        arrival = start + tx_time + self.latency
        dst = face.peer
        trace = self.sim.trace
        if trace.active and trace.wants("span.link"):
            span = packet_span_id(packet)
            if span:
                # One record per hop traversal; `queue` is the wait
                # behind earlier transmissions, `tx` the serialization
                # time, `prop` the propagation latency.  The three sum to
                # `arrival - now`, so span decomposition is exact.
                trace.emit(
                    "span.link", now,
                    span=span, src=src.node_id, dst=dst.node_id,
                    kind=type(packet).__name__.lower(),
                    queue=start - now, tx=tx_time, prop=self.latency,
                )
        self.sim.post_at(arrival, dst.receive, (packet, face.remote_face))
        self.packets_sent += 1
        self.bytes_sent += size
        return True

    def _trace_span_drop(self, packet: object, src: "Node", reason: str) -> None:
        """Terminal span mark for a packet the link swallowed."""
        trace = self.sim.trace
        if trace.active and trace.wants("span.drop"):
            span = packet_span_id(packet)
            if span:
                trace.emit(
                    "span.drop", self.sim.now,
                    span=span, src=src.node_id,
                    dst=self.other_endpoint(src).node_id, reason=reason,
                )

    def utilization(self, direction_src: "Node", now: Optional[float] = None) -> float:
        """Seconds of queued transmission remaining in one direction."""
        now = self.sim.now if now is None else now
        return max(0.0, self._faces[direction_src.node_id].busy_until - now)
