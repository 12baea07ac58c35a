"""Simulation flight recorder: a bounded ring of recent events with
post-mortem dumps.

A :class:`FlightRecorder` subscribes to the substrate trace hub with a
wildcard, keeping the last *N* trace records (and, when auditing is on,
the last *N* access-control decision records) in a ``deque``.  When
something goes wrong — a SimSan invariant trips or the NACK rate
crosses a storm threshold — and once more at the end of every run
selected with ``--obs flightrec``, it writes a post-mortem bundle: the
ring contents, per-node PIT/CS/Bloom snapshots, and the spans still in
flight at dump time.

Zero cost when off is inherited from the trace hub's design: with no
recorder installed there is no ``"*"`` subscriber, ``trace.active``
stays false, and every emission site in the substrate short-circuits on
a single attribute check.  Installing a recorder is what flips those
sites on — the recorder *is* the cost, there is no residual overhead in
the off state.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from pathlib import Path
from typing import Any, Dict, List

__all__ = [
    "DEFAULT_NACK_THRESHOLD",
    "DEFAULT_NACK_WINDOW",
    "DEFAULT_RING_SIZE",
    "FlightRecorder",
    "merge_flightrec",
]

DEFAULT_RING_SIZE = 512
#: NACK-storm trigger: this many NACK deliveries observed inside the
#: sliding virtual-time window.
DEFAULT_NACK_THRESHOLD = 50
DEFAULT_NACK_WINDOW = 1.0


def _jsonable(value: Any) -> Any:
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class FlightRecorder:
    """Bounded event ring + post-mortem bundle writer.

    Parameters
    ----------
    directory:
        Where bundles land (created on first dump).
    size:
        Ring capacity, in records.
    nack_threshold / nack_window:
        NACK-storm trigger: dump (once) when ``nack_threshold`` NACK
        deliveries are observed within ``nack_window`` sim seconds.
    label:
        Run label baked into bundle filenames.  :meth:`install` also
        bakes in a digest of the scenario, so the runs of one fleet,
        which share a directory, never write the same file.
    dump_on_exit:
        Force a bundle at :meth:`finalize` even without a trigger (what
        ``--obs flightrec`` asks for).
    """

    name = "flightrec"

    def __init__(
        self,
        directory: str,
        size: int = DEFAULT_RING_SIZE,
        nack_threshold: int = DEFAULT_NACK_THRESHOLD,
        nack_window: float = DEFAULT_NACK_WINDOW,
        label: str = "",
        dump_on_exit: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.size = size
        self.nack_threshold = nack_threshold
        self.nack_window = nack_window
        self.label = label
        self.dump_on_exit = dump_on_exit
        #: Scenario digest set by :meth:`install` ("" for a bare run).
        self.run_key = ""
        self.ring: deque = deque(maxlen=size)
        #: Paths of every bundle written, in order.
        self.dumps: List[Path] = []
        self._sim: Any = None
        self._network: Any = None
        self._active_spans: Dict[int, Dict[str, Any]] = {}
        self._nack_times: deque = deque()
        self._storm_dumped = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install(self, run: Any) -> "FlightRecorder":
        """Instrument protocol: subscribe to every trace event on
        ``run.sim`` (its network feeds the table snapshots) and tap the
        audit and SimSan peers (decision records ride the ring; the
        first SimSan violation dumps a bundle)."""
        self.label = self.label or run.label
        if run.scenario is not None:
            self.run_key = hashlib.sha1(repr(run.scenario).encode()).hexdigest()[:10]
        self._sim = run.sim
        self._network = run.network
        run.sim.trace.subscribe("*", self._on_trace)
        audit = run.instruments.get("audit")
        if audit is not None:
            audit.sink = self.on_decision
        simsan = run.instruments.get("simsan")
        if simsan is not None:
            simsan.flightrec = self
        return self

    def _on_trace(self, record: Any) -> None:
        self.ring.append((record.name, record.time, record.payload))
        name = record.name
        if name == "span.start":
            span = record.payload.get("span")
            if span is not None:
                self._active_spans[span] = {"started": record.time, **record.payload}
        elif name == "span.end":
            self._active_spans.pop(record.payload.get("span"), None)
        elif name == "node.tx.nack" or (
            name == "node.tx.data" and record.payload.get("nack") is not None
        ):
            self._note_nack(record.time)

    def on_decision(self, record: Any) -> None:
        """Audit sink: ride decision records on the same ring."""
        self.ring.append(("audit.decision", record.time, record.to_json_dict()))

    def _note_nack(self, now: float) -> None:
        times = self._nack_times
        times.append(now)
        horizon = now - self.nack_window
        while times and times[0] < horizon:
            times.popleft()
        if len(times) >= self.nack_threshold and not self._storm_dumped:
            self._storm_dumped = True
            self.dump("nack-storm")

    # ------------------------------------------------------------------
    # The bundle
    # ------------------------------------------------------------------
    def _node_snapshots(self) -> Dict[str, Any]:
        nodes: Dict[str, Any] = {}
        if self._network is None:
            return nodes
        for node_id in sorted(self._network.nodes):
            node = self._network.nodes[node_id]
            snap: Dict[str, Any] = {}
            pit = getattr(node, "pit", None)
            if pit is not None:
                snap["pit_entries"] = len(pit)
            cs = getattr(node, "cs", None)
            if cs is not None:
                snap["cs"] = {"entries": len(cs), "hits": cs.hits, "misses": cs.misses}
            bloom = getattr(node, "bloom", None)
            if bloom is not None:
                snap["bf"] = {
                    "count": bloom.count,
                    "size_bits": bloom.size_bits,
                    "fill_ratio": bloom.fill_ratio(),
                    "current_fpp": bloom.current_fpp(),
                    "resets": bloom.reset_count,
                }
            if snap:
                nodes[node_id] = snap
        return nodes

    def bundle(self, reason: str) -> Dict[str, Any]:
        """The post-mortem as plain data (what :meth:`dump` writes)."""
        return {
            "reason": reason,
            "label": self.label,
            "time": self._sim.now if self._sim is not None else 0.0,
            "events_executed": getattr(self._sim, "events_executed", 0),
            "ring": [
                {"name": name, "time": time, "payload": _jsonable(payload)}
                for name, time, payload in self.ring
            ],
            "active_spans": {
                str(span): _jsonable(info)
                for span, info in sorted(self._active_spans.items())
            },
            "nodes": self._node_snapshots(),
        }

    def dump(self, reason: str) -> Path:
        """Write one bundle and return its path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        parts = ["flightrec", self.label, self.run_key, f"{len(self.dumps):03d}"]
        path = self.directory / ("-".join(part for part in parts if part) + ".json")
        # Written aside and renamed into place: two workers running the
        # same scenario never leave a torn bundle.
        scratch = path.with_name(f".{path.name}.{os.getpid()}")
        with open(scratch, "w") as handle:
            json.dump(self.bundle(reason), handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(scratch, path)
        self.dumps.append(path)
        return path

    def finalize(self) -> Dict[str, Any]:
        """End-of-run hook: honour the forced-dump request and name the
        bundles written."""
        if self.dump_on_exit:
            self.dump("on-demand")
        return {"runs": 1, "bundles": [path.name for path in self.dumps]}


def merge_flightrec(into: Dict[str, Any], record: Dict[str, Any]) -> Dict[str, Any]:
    """Fold one run's bundle list into the fleet view (submission order)."""
    into["runs"] = into.get("runs", 0) + record.get("runs", 0)
    into.setdefault("bundles", []).extend(record.get("bundles", []))
    return into
