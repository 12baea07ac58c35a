"""Per-layer wall-time attribution: the ``profile`` instrument.

A :class:`LayerTracer` swaps every public entry point in
:data:`ENTRY_POINTS` (the event loop, NDN forwarding, the TACTIC
handlers, Bloom filters, signatures, the experiment engine's build,
reduce and cache steps) for a call-through shim, and puts the original
objects back on exit.  The simulator carries no hook for it: an
untraced run executes exactly the code it always did, and a traced run
computes the same values, only slower: +53% on the loop of paper
topology 1 at full size, measured on an Intel Xeon container with
CPython 3.11.7 (docs/PERFORMANCE.md).

Each shim call is a span.  Per span name the tracer keeps the call
count, the inclusive time (``total_s``) and the exclusive time
(``self_s``: the span's duration minus the time its direct children
cover), so the self times of all spans partition the time spent under
the outermost traced calls exactly.  No span records are kept.

Usage: ``with LayerTracer() as tracer: run_scenario(scenario)``, then
``tracer.render()``.  As the ``profile`` row of
:mod:`repro.obs.instruments` a tracer wraps one run; the engine prints
each executed run's layer table on stderr as it folds the record
(:func:`merge_profile`) and writes every record to
``<obs-out>/profile.json``.  The table is kept equal to the
benchmark's own copy (``perfbench/spans.py``) by a tier-1 test.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: (module, attribute path, layer name).  An attribute path with a dot
#: is ``Class.method``; without one it is a module-level function, and
#: the binding is swapped in that module (callers that imported the
#: function by name are listed separately, as for ``summarize``).
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.exec.spec", "ScenarioSpec.build", "build.plan"),
    ("repro.experiments.runner", "build_assembly", "build.assembly"),
    ("repro.sim.engine", "Simulator.run", "sim.loop"),
    ("repro.ndn.node", "Node.receive", "ndn.receive"),
    ("repro.ndn.link", "Face.send", "ndn.send"),
    ("repro.ndn.link", "Link.transmit", "ndn.send"),
    ("repro.ndn.pit", "Pit.find", "ndn.pit"),
    ("repro.ndn.pit", "Pit.insert", "ndn.pit"),
    ("repro.ndn.pit", "Pit.consume", "ndn.pit"),
    ("repro.ndn.pit", "Pit.drop_record", "ndn.pit"),
    ("repro.ndn.pit", "Pit.purge_expired", "ndn.pit"),
    ("repro.ndn.cs", "ContentStore.lookup", "ndn.cs_lookup"),
    ("repro.ndn.cs", "ContentStore.insert", "ndn.cs_insert"),
    ("repro.ndn.fib", "Fib.lookup", "ndn.fib"),
    ("repro.ndn.fib", "Fib.lookup_entry", "ndn.fib"),
    ("repro.ndn.fib", "Fib.lookup_nexthops", "ndn.fib"),
    ("repro.core.client", "Client._pump", "core.client"),
    ("repro.core.client", "Client.on_data", "core.client"),
    ("repro.core.client", "Client.on_nack", "core.client"),
    ("repro.core.client", "Client._on_timeout", "core.client"),
    ("repro.core.client", "Client._on_registration_timeout", "core.client"),
    ("repro.core.edge_router", "EdgeRouter.on_interest", "core.edge"),
    ("repro.core.edge_router", "EdgeRouter.on_data", "core.edge"),
    ("repro.core.core_router", "CoreRouter.on_interest", "core.core"),
    ("repro.core.core_router", "CoreRouter.on_data", "core.core"),
    ("repro.core.provider", "Provider.on_interest", "core.provider"),
    ("repro.core.router_base", "TacticRouterBase.bf_lookup", "core.bf_lookup"),
    ("repro.filters.bloom", "BloomFilter.contains", "filters.contains"),
    ("repro.filters.bloom", "BloomFilter.insert", "filters.insert"),
    ("repro.filters.bloom", "BloomFilter.reset", "filters.reset"),
    ("repro.crypto.sim_signature", "SimulatedKeyPair.sign", "crypto.sign"),
    ("repro.crypto.sim_signature", "SimulatedPublicKey.verify", "crypto.verify"),
    ("repro.crypto.rsa", "RsaKeyPair.sign", "crypto.sign"),
    ("repro.crypto.rsa", "RsaPublicKey.verify", "crypto.verify"),
    ("repro.exec.summary", "summarize", "reduce.summarize"),
    ("repro.exec.engine", "summarize", "reduce.summarize"),
    ("repro.experiments.table5_bf_resets", "render_table5", "reduce.render"),
    ("repro.exec.cache", "code_fingerprint", "exec.fingerprint"),
    ("repro.exec.cache", "RunCache.get", "exec.cache_get"),
    ("repro.exec.cache", "RunCache.put", "exec.cache_put"),
)

#: The layer whose shim also counts the events each call executes.
LOOP_LAYER = "sim.loop"


def resolve(module_name: str, path: str) -> Tuple[Any, str]:
    """The ``(owner, attribute)`` an :data:`ENTRY_POINTS` row names."""
    owner: Any = importlib.import_module(module_name)
    attr = path
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class LayerTracer:
    """Exact per-layer call counts, inclusive and self times for one window.

    ``clock`` is injectable so tests can drive the arithmetic with a
    fake time source.  Entering installs the shims and starts the wall
    clock; exiting (also when the body raises) stops it and restores
    every swapped attribute to its original object, in reverse order,
    so nested tracers unwind cleanly.
    """

    name = "profile"

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.label = ""
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        #: Events executed under the ``sim.loop`` shim.
        self.events = 0
        self.started_at = self.stopped_at = 0.0
        # One [time covered by children] cell per open call.
        self._stack: List[List[float]] = []
        self._swaps: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "LayerTracer":
        try:
            for module_name, path, name in ENTRY_POINTS:
                owner, attr = resolve(module_name, path)
                original = owner.__dict__[attr]
                self._swaps.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
        except BaseException:
            self.__exit__()
            raise
        self.started_at = self.stopped_at = self.clock()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.stopped_at = self.clock()
        while self._swaps:
            owner, attr, original = self._swaps.pop()
            setattr(owner, attr, original)
        return False

    def install(self, run: Any) -> "LayerTracer":
        """Instrument protocol: trace from here to :meth:`finalize`."""
        self.label = run.label
        return self.__enter__()

    def close(self) -> None:
        """Restore the entry points if they are still shimmed."""
        if self._swaps:
            self.__exit__()

    def finalize(self) -> dict:
        self.close()
        return {"label": self.label, **self.report()}

    def wrap(self, name: str, func: Callable) -> Callable:
        """A call-through shim that charges each call of ``func`` to
        layer ``name`` (what entering installs per entry point)."""
        self.calls.setdefault(name, 0)
        self.total_s.setdefault(name, 0.0)
        self.self_s.setdefault(name, 0.0)
        clock, stack = self.clock, self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        counts_events = name == LOOP_LAYER

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if counts_events:
                before = args[0].events_executed
            covered = [0.0]
            stack.append(covered)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - covered[0]
                if stack:
                    stack[-1][0] += elapsed
                if counts_events:
                    self.events += args[0].events_executed - before

        return traced

    def report(self) -> dict:
        """JSON-serializable summary; ``layers`` is ordered by self time."""
        wall = max(0.0, self.stopped_at - self.started_at)
        ranked = sorted(
            (name for name, calls in self.calls.items() if calls),
            key=self.self_s.get,
            reverse=True,
        )
        return {
            "events": self.events,
            "wall_seconds": wall,
            "events_per_second": self.events / wall if wall > 0 else 0.0,
            "layers": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in ranked
            },
        }

    def render(self) -> str:
        """The report as an ``events/sec`` line and a layer table."""
        return render_profile(self.report())


def render_profile(data: dict) -> str:
    """A :meth:`LayerTracer.report` as an ``events/sec`` line and a
    layer table."""
    wall = data["wall_seconds"] or 1.0
    lines = [
        f"traced {data['events']} events in {data['wall_seconds']:.3f}s wall "
        f"({data['events_per_second']:,.0f} events/sec)",
        f"{'layer':<20} {'calls':>10} {'total s':>9} {'self s':>9} {'self':>6}",
    ]
    for name, row in data["layers"].items():
        lines.append(
            f"{name:<20} {row['calls']:>10} {row['total_s']:>9.4f} "
            f"{row['self_s']:>9.4f} {row['self_s'] / wall:>6.1%}"
        )
    return "\n".join(lines)


def merge_profile(into: dict, record: dict) -> dict:
    """Fold one run's record into the fleet view and print its layer
    table on stderr (the engine folds in submission order, so tables
    come out in that order in every execution mode)."""
    into.setdefault("runs", []).append(record)
    sys.stderr.write(
        f"── profile: {record.get('label') or 'run'} ──\n{render_profile(record)}\n"
    )
    return into
