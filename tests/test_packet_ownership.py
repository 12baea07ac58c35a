"""Packet ownership: no node mutates a packet someone else still holds.

A node owns the packet it receives.  The content store keeps that very
object and strips its per-request fields in place, and every other
holder gets a copy (docs/ARCHITECTURE.md, "Packet ownership").  Sharing
a packet is only safe while that rule holds, so this run watches every
transmission: a packet object may not be sent while it is still in
flight on a link, nor while a content store holds it, and a content
store may not take a packet that is still in flight.
"""

from __future__ import annotations

from repro.exec.spec import ScenarioSpec
from repro.experiments.runner import run_scenario
from repro.ndn.cs import ContentStore
from repro.ndn.link import Face
from repro.ndn.node import Node


def _store_key(store, packet):
    """The key ``store`` files ``packet`` under, whatever its type, or
    None when the store does not hold it.  A fresh or refreshed entry
    sits at the end of the store's order, so the scan from the end is
    short."""
    for key in reversed(store._store):
        if store._store[key] is packet:
            return key
    return None


def test_no_packet_is_shared_while_held(monkeypatch):
    in_flight = {}  # id -> packet, between Face.send and Node.receive
    cached = {}  # id -> (store, key, packet), from ContentStore.insert
    violations = []
    held_after_insert = []
    face_send = Face.send
    node_receive = Node.receive
    cs_insert = ContentStore.insert

    def held_by_store(packet):
        entry = cached.get(id(packet))
        return entry is not None and entry[0]._store.get(entry[1]) is packet

    def note(what, where, packet):
        violations.append((what, where, str(packet.name)))

    def send(self, packet):
        if id(packet) in in_flight:
            note("sent while in flight", self.node.node_id, packet)
        if held_by_store(packet):
            note("sent while cached", self.node.node_id, packet)
        accepted = face_send(self, packet)
        if accepted:
            in_flight[id(packet)] = packet
        return accepted

    def receive(self, packet, in_face):
        in_flight.pop(id(packet), None)
        node_receive(self, packet, in_face)

    def insert(self, data):
        if id(data) in in_flight:
            note("cached while in flight", None, data)
        cs_insert(self, data)
        if self.capacity > 0:
            cached[id(data)] = (self, _store_key(self, data), data)
            held_after_insert.append(held_by_store(data))

    monkeypatch.setattr(Face, "send", send)
    monkeypatch.setattr(Node, "receive", receive)
    monkeypatch.setattr(ContentStore, "insert", insert)

    result = run_scenario(
        ScenarioSpec.make(topology=1, duration=2.0, scale=0.1, seed=1).build()
    )

    # The run exercised the shared paths: caches filled and served.
    stores = [node.cs for node in result.network.nodes.values()]
    assert sum(cs.hits for cs in stores) > 0
    assert len(cached) > 0
    # The held check sees what the stores keep: right after each insert
    # (LRU: the new entry is never the victim) the store holds the packet.
    assert held_after_insert and all(held_after_insert)
    assert not violations, f"{len(violations)} violations, first: {violations[:3]}"
