"""A packet hop makes no Python-level ``Name`` hash or equality call.

The per-hop tables (the PIT, the content store and its LFU counts, the
access point's pending map, the client's outstanding requests) key by
the name's URI string, whose hash CPython caches and compares in C, so
a lookup never enters ``Name.__hash__`` or ``Name.__eq__``
(docs/ARCHITECTURE.md, "URI-keyed tables").  This run counts both
dunders inside ``Simulator.run`` only, with the counters installed
after the build, and requires zero.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.exec.spec import ScenarioSpec
from repro.experiments.runner import run_scenario
from repro.ndn.name import Name
from repro.sim.engine import Simulator


@contextmanager
def counting_name_dunders():
    """Count ``Name.__hash__`` and ``Name.__eq__`` calls while open."""
    counts = {"__hash__": 0, "__eq__": 0}
    name_hash, name_eq = Name.__hash__, Name.__eq__

    def counted_hash(self):
        counts["__hash__"] += 1
        return name_hash(self)

    def counted_eq(self, other):
        counts["__eq__"] += 1
        return name_eq(self, other)

    Name.__hash__, Name.__eq__ = counted_hash, counted_eq
    try:
        yield counts
    finally:
        Name.__hash__, Name.__eq__ = name_hash, name_eq


def test_counters_see_a_name_keyed_lookup():
    # The counters' own power: a Name-keyed dict hits both dunders.
    with counting_name_dunders() as counts:
        table = {Name("/a/1"): 1}
        assert table[Name("/a/1")] == 1
    assert counts == {"__hash__": 2, "__eq__": 1}


def test_simulator_run_makes_no_name_hash_or_eq_calls(monkeypatch):
    seen = []
    run = Simulator.run

    def counted_run(self, until=None):
        with counting_name_dunders() as counts:
            run(self, until)
        seen.append(counts)

    monkeypatch.setattr(Simulator, "run", counted_run)
    result = run_scenario(
        ScenarioSpec.make(topology=1, duration=1.0, scale=0.2, seed=1).build()
    )

    # The run exercised every keyed table: requests went out and came
    # back through access points, PITs aggregated and caches served.
    nodes = result.network.nodes.values()
    assert result.sim.events_executed > 10_000
    assert sum(node.cs.hits for node in nodes) > 0
    assert result.client_delivery_ratio() > 0.5
    assert seen == [{"__hash__": 0, "__eq__": 0}]
