"""Count the Python calls one paper point makes, by function.

Usage (from the repository root)::

    python3 benchmarks/call_ledger.py [--src DIR] [--seed 1000] [--duration 2] \
        [--out FILE]

Runs perfbench's ``topo1_paper`` operation (topology 1, scale 1.0,
2 virtual s, scenario seed 1000) once under :mod:`cProfile` in a fresh
interpreter importing ``repro`` from ``--src`` (default: this
checkout's ``src``), so two trees can be compared by running the script
once against each.  It prints one JSON document: the total number of
Python calls the operation made (build, loop and summary), the events
it executed, and the call counts of the per-hop functions listed in
``WATCHED`` (0 for a function the tree no longer has); ``--out`` also
writes it to a file (``make ledger`` writes
``benchmarks/results/call_ledger.json``).

cProfile slows the operation several-fold; the counts, not the times,
are the output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (file suffix, function name) -> ledger key.  ``Simulator.now`` is
#: the getter of trees where the clock was a property (0 where it is an
#: attribute); the profiler reports it as ``now``.
WATCHED = {
    ("ndn/name.py", "__hash__"): "Name.__hash__",
    ("ndn/name.py", "__eq__"): "Name.__eq__",
    ("ndn/name.py", "__len__"): "Name.__len__",
    ("ndn/name.py", "__getitem__"): "Name.__getitem__",
    ("sim/engine.py", "now"): "Simulator.now",
    ("sim/engine.py", "_note_cancel"): "Simulator._note_cancel",
    ("ndn/node.py", "compute_delay"): "Node.compute_delay",
    ("ndn/node.py", "_trace_cs_hit"): "Node._trace_cs_hit",
    ("ndn/node.py", "_trace_pit_aggregate"): "Node._trace_pit_aggregate",
    ("ndn/node.py", "trace_span_serve"): "Node.trace_span_serve",
    ("core/client.py", "_trace_span_start"): "Client._trace_span_start",
    ("core/client.py", "_trace_span_end"): "Client._trace_span_end",
    ("sim/tracing.py", "active"): "TraceHub.active",
    ("sim/tracing.py", "wants"): "TraceHub.wants",
    ("ndn/packets.py", "is_registration"): "Interest.is_registration",
    ("ndn/node.py", "on_data"): "Node.on_data (incl. AccessPoint)",
    ("ndn/node.py", "<listcomp>"): "node.py list comprehensions",
    ("core/tag.py", "encoded_size"): "Tag.encoded_size",
    ("core/tag.py", "cache_key"): "Tag.cache_key",
    ("filters/bloom.py", "contains"): "BloomFilter.contains",
    ("filters/bloom.py", "_probes"): "bloom._probes (memo misses)",
    ("sim/engine.py", "post_at"): "Simulator.post_at",
    ("crypto/cost_model.py", "sample"): "ComputationCostModel.sample",
    ("core/metrics.py", "note_request"): "OpCounters.note_request",
    ("ndn/pit.py", "find"): "Pit.find",
    ("ndn/name.py", "__new__"): "Name.__new__",
    ("ndn/name.py", "__init__"): "Name.__init__",
    ("ndn/name.py", "__truediv__"): "Name.__truediv__",
    ("crypto/chacha20.py", "_quarter_round"): "chacha20._quarter_round",
    ("crypto/chacha20.py", "_rotl32"): "chacha20._rotl32",
}


def measure(seed: int, duration: float) -> dict:
    import cProfile
    import pstats

    from repro.exec.spec import ScenarioSpec
    from repro.experiments.runner import run_scenario

    profiler = cProfile.Profile()
    profiler.enable()
    scenario = ScenarioSpec.make(
        topology=1, duration=duration, seed=seed, scale=1.0
    ).build()
    result = run_scenario(scenario)
    result.to_summary()
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    total = 0
    watched = {key: 0 for key in WATCHED.values()}
    for (filename, _, function), (_, ncalls, *_rest) in stats.items():
        total += ncalls
        for (suffix, name), key in WATCHED.items():
            if function == name and filename.endswith(suffix):
                watched[key] += ncalls
    return {
        "seed": seed,
        "duration": duration,
        "events": result.sim.events_executed,
        "python_calls": total,
        "calls": watched,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--out", help="also write the JSON document to this file")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.one:
        sys.path.insert(0, args.src)
        print(json.dumps(measure(args.seed, args.duration)))
        return 0

    child = subprocess.run(
        [
            sys.executable, __file__, "--one", "--src", args.src,
            "--seed", str(args.seed), "--duration", str(args.duration),
        ],
        check=True, capture_output=True, text=True,
    )
    document = json.loads(child.stdout.strip().splitlines()[-1])
    text = json.dumps(document, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
