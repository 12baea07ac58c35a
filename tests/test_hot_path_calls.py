"""A packet hop makes no call whose result the caller could already read.

The per-hop tables (the PIT, the content store and its LFU counts, the
access point's pending map, the client's outstanding requests) key by
the name's URI string, whose hash CPython caches and compares in C, so
a lookup never enters ``Name.__hash__`` or ``Name.__eq__``
(docs/ARCHITECTURE.md, "URI-keyed tables").  Tags carry their wire
size and cache key as fields, routers call the cost model directly,
the PIT looks entries up itself, trace hooks are skipped at the call
site when nothing subscribes, ``Face.send`` pushes its delivery onto
the heap itself and the ChaCha20 block runs on locals
(docs/PERFORMANCE.md, "Per-hop interpreter overhead").  One run counts
calls inside ``Simulator.run`` only, with the counters installed after
the build, and requires zero of each removed call.
"""

from __future__ import annotations

import cProfile
import pstats
from contextlib import contextmanager

import pytest

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


@pytest.fixture(scope="module")
def profiled_run():
    """One topology-1 run (scale 0.2, 1 s) with the ``Name`` dunder
    counters and a profiler open inside ``Simulator.run`` only."""
    seen = []
    profiler = cProfile.Profile()
    run = Simulator.run

    def counted_run(self, until=None):
        with counting_name_dunders() as counts:
            profiler.enable()
            try:
                run(self, until)
            finally:
                profiler.disable()
        seen.append(counts)

    Simulator.run = counted_run
    try:
        result = run_scenario(
            ScenarioSpec.make(topology=1, duration=1.0, scale=0.2, seed=1).build()
        )
    finally:
        Simulator.run = run
    return result, seen, pstats.Stats(profiler).stats


def _calls(stats, suffix, function):
    """Calls of ``function`` defined in a file ending in ``suffix``, and
    the ``(file suffix, function)`` of each caller."""
    total, callers = 0, set()
    for (filename, _, name), (_, ncalls, _, _, by) in stats.items():
        if name == function and filename.endswith(suffix):
            total += ncalls
            callers.update(("/".join(f.split("/")[-2:]), fn) for f, _, fn in by)
    return total, callers


def test_simulator_run_makes_no_name_hash_or_eq_calls(profiled_run):
    result, seen, _ = profiled_run
    # The run exercised every keyed table: requests went out and came
    # back through access points, PITs aggregated and caches served.
    nodes = result.network.nodes.values()
    assert result.sim.events_executed > 10_000
    assert sum(node.cs.hits for node in nodes) > 0
    assert result.client_delivery_ratio() > 0.5
    assert seen == [{"__hash__": 0, "__eq__": 0}]


#: Per-hop helpers a run with no trace subscriber never enters: what
#: they computed is a field, a direct call or an inline expression at
#: the call site.  A helper the tree no longer defines counts 0, so
#: bringing one back with a caller on the hop turns this red.
REMOVED_PER_HOP_CALLS = (
    ("core/tag.py", "encoded_size"),
    ("core/tag.py", "cache_key"),
    ("ndn/pit.py", "find"),
    ("ndn/node.py", "compute_delay"),
    ("ndn/node.py", "trace_span_serve"),
    ("crypto/chacha20.py", "_quarter_round"),
    ("crypto/chacha20.py", "_rotl32"),
)


@pytest.mark.parametrize("suffix, function", REMOVED_PER_HOP_CALLS)
def test_removed_per_hop_helper_is_never_called(profiled_run, suffix, function):
    _, _, stats = profiled_run
    assert _calls(stats, suffix, function)[0] == 0


def test_the_paths_those_helpers_sat_on_ran(profiled_run):
    # The counts above mean something only if the run took the paths:
    # packets were sized, tags checked, the PIT filled, content and
    # tags served, and registrations wrapped keys under ChaCha20.
    result, _, stats = profiled_run
    assert _calls(stats, "ndn/packets.py", "size_bytes")[0] > 1_000
    assert _calls(stats, "core/router_base.py", "bf_lookup")[0] > 100
    assert _calls(stats, "ndn/pit.py", "insert")[0] > 1_000
    assert _calls(stats, "ndn/pit.py", "consume")[0] > 1_000
    assert _calls(stats, "core/content_router.py", "serve_content")[0] > 100
    assert _calls(stats, "crypto/chacha20.py", "_block")[0] > 0
    assert _calls(stats, "crypto/cost_model.py", "sample")[0] > 1_000


def test_client_content_spans_are_skipped_at_the_call_site(profiled_run):
    # Each content request and delivery leaves its span hook uncalled;
    # the rare registration and timeout paths still call through.
    _, _, stats = profiled_run
    for hook, hot_caller in (
        ("_trace_span_start", "_send_interest"),
        ("_trace_span_end", "on_data"),
    ):
        _, callers = _calls(stats, "core/client.py", hook)
        assert ("core/client.py", hot_caller) not in callers


def test_face_send_pushes_without_post_at(profiled_run):
    # Link deliveries go straight onto the heap; only the delayed
    # sends of Node.send still schedule through post_at.
    _, _, stats = profiled_run
    calls, callers = _calls(stats, "sim/engine.py", "post_at")
    assert calls > 0
    assert callers == {("ndn/node.py", "send")}
