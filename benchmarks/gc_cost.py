"""What CPython's cyclic garbage collector costs one paper point.

Usage (from the repository root)::

    python3 benchmarks/gc_cost.py [--src DIR] [--durations 2 10 40] [--seed 1000]

Runs topology 1 at scale 1.0 (perfbench's ``topo1_paper`` point) once
per duration, each in a fresh interpreter importing ``repro`` from
``--src`` (default: this checkout's ``src``), so two trees can be
compared by running the script once against each.  For every run it
prints one JSON line with the run's wall time and, from
``gc.callbacks``, the collections and seconds per generation over the
whole operation (build, loop, summary), inside ``Simulator.run`` alone
and after it returns (the summary), and the process's peak RSS.

A last line counts, in one more run at the first duration, the
``Data.copy`` calls and the ``Name`` builds that went through the
generic constructor (``Name.__init__`` with a value that is not already
a ``Name``).  The counting wrappers slow that run, so it is timed
separately from the others.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec(duration: float, seed: int):
    from repro.exec.spec import ScenarioSpec

    return ScenarioSpec.make(topology=1, duration=duration, seed=seed, scale=1.0).build()


def measure_gc(duration: float, seed: int) -> dict:
    import gc

    from repro.experiments.runner import run_scenario
    from repro.sim.engine import Simulator

    where = {"part": "build"}
    stats = {
        part: {str(g): {"collections": 0, "seconds": 0.0} for g in range(3)}
        for part in ("op", "loop", "after_loop")
    }
    started = []

    def on_gc(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
            return
        elapsed = time.perf_counter() - started.pop()
        parts = ("op",) if where["part"] == "build" else ("op", where["part"])
        for part in parts:
            entry = stats[part][str(info["generation"])]
            entry["collections"] += 1
            entry["seconds"] += elapsed

    run = Simulator.run

    def flagged(self, until=None):
        where["part"] = "loop"
        try:
            run(self, until)
        finally:
            where["part"] = "after_loop"

    Simulator.run = flagged
    gc.callbacks.append(on_gc)
    began = time.perf_counter()
    result = run_scenario(_spec(duration, seed))
    result.to_summary()
    op_s = time.perf_counter() - began
    gc.callbacks.remove(on_gc)
    for part in stats.values():
        for entry in part.values():
            entry["seconds"] = round(entry["seconds"], 4)
    return {
        "duration": duration,
        "seed": seed,
        "events": result.sim.events_executed,
        "op_s": round(op_s, 3),
        "loop_s": round(result.wall_seconds, 3),
        "gc_op_s": round(sum(e["seconds"] for e in stats["op"].values()), 4),
        "gc_loop_s": round(sum(e["seconds"] for e in stats["loop"].values()), 4),
        "gc_after_loop_s": round(
            sum(e["seconds"] for e in stats["after_loop"].values()), 4
        ),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "gc": stats,
    }


def measure_counts(duration: float, seed: int) -> dict:
    from repro.experiments.runner import run_scenario
    from repro.ndn.name import Name
    from repro.ndn.packets import Data

    counts = {"data_copy": 0, "name_generic_builds": 0}
    copy, init = Data.copy, Name.__init__

    def counted_copy(self):
        counts["data_copy"] += 1
        return copy(self)

    def counted_init(self, value=()):
        if value is not self:
            counts["name_generic_builds"] += 1
        init(self, value)

    spec = _spec(duration, seed)
    Data.copy, Name.__init__ = counted_copy, counted_init
    try:
        result = run_scenario(spec)
    finally:
        Data.copy, Name.__init__ = copy, init
    return {
        "duration": duration,
        "seed": seed,
        "events": result.sim.events_executed,
        "counts": counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--durations", type=float, nargs="+", default=[2.0, 10.0, 40.0])
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--one", choices=("gc", "counts"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.one:
        sys.path.insert(0, args.src)
        measure = measure_gc if args.one == "gc" else measure_counts
        print(json.dumps(measure(args.durations[0], args.seed)))
        return 0

    jobs = [("gc", d) for d in args.durations] + [("counts", args.durations[0])]
    for kind, duration in jobs:
        child = subprocess.run(
            [
                sys.executable, __file__, "--one", kind, "--src", args.src,
                "--durations", str(duration), "--seed", str(args.seed),
            ],
            check=True, capture_output=True, text=True,
        )
        print(child.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
