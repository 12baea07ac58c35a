"""Packet-level trace logging: capture, persist, and summarize.

The substrate emits trace records for every packet arrival
(``node.rx.interest`` / ``node.rx.data`` / ``node.rx.nack``) and every
drop-tail loss (``link.drop``).  :class:`TraceRecorder` collects them
(optionally filtered); :func:`write_jsonl` / :func:`read_jsonl` persist
them; :func:`summarize` reduces a capture to per-event and per-node
counts — the debugging loop for protocol work.

>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> recorder = TraceRecorder(sim, events=("node.rx.data",))
>>> # ... run a simulation ...
>>> recorder.stop()

As the ``trace`` row of :mod:`repro.obs.instruments` a recorder
captures every substrate and ``span.*`` event of a run and, at
finalize, writes them to ``<obs-out>/trace/<label>-<digest>.jsonl``
(the digest is of the scenario, as for flight-recorder bundles, so the
runs of one fleet never share a file).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sim.engine import Simulator
from repro.sim.tracing import TraceRecord

#: Every event name the substrate currently emits (``span.*`` lifecycle
#: events live separately in :data:`repro.obs.spans.SPAN_EVENTS`).
KNOWN_EVENTS = (
    "node.rx.interest",
    "node.rx.data",
    "node.rx.nack",
    "node.tx.interest",
    "node.tx.data",
    "node.tx.nack",
    "pit.timeout",
    "pit.aggregate",
    "cs.hit",
    "link.drop",
    "audit.decision",
)


class TraceRecorder:
    """Subscribes to trace events and buffers them in arrival order.

    Built with a ``sim`` it records at once; built without one, it
    records from :meth:`install` (the instrument protocol) and writes
    its JSONL file into ``directory`` at :meth:`finalize`.
    """

    name = "trace"

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        events: Sequence[str] = KNOWN_EVENTS,
        limit: int = 0,
        directory: Optional[str] = None,
    ) -> None:
        self.events = tuple(events)
        self.limit = limit
        self.directory = directory
        self.records: List[TraceRecord] = []
        self.dropped = 0
        self.label = ""
        self.path: Optional[str] = None
        self._statescope = None
        self._active = False
        if sim is not None:
            self._subscribe(sim)

    def _subscribe(self, sim: Simulator) -> None:
        self.sim = sim
        self._active = True
        for event in self.events:
            sim.trace.subscribe(event, self._on_record)

    def install(self, run) -> "TraceRecorder":
        """Instrument protocol: record ``run``; its statescope peer's
        timeline rides the record as Chrome counter tracks."""
        self.label = run.label
        self._statescope = run.instruments.get("statescope")
        if self.directory is not None:
            digest = hashlib.sha1(repr(run.scenario).encode()).hexdigest()[:10]
            stem = "-".join(part for part in (run.label, digest) if part)
            self.path = os.path.join(self.directory, stem + ".jsonl")
        self._subscribe(run.sim)
        return self

    def finalize(self) -> dict:
        """Stop, write the JSONL file, and return its record."""
        self.stop()
        record = {"label": self.label, "records": len(self.records)}
        if self.path is not None:
            os.makedirs(self.directory, exist_ok=True)
            # Written aside and renamed into place: two workers running
            # the same scenario never leave a torn file.
            scratch = f"{self.path}.{os.getpid()}"
            write_jsonl(self.records, scratch)
            os.replace(scratch, self.path)
            record["path"] = self.path
        if self._statescope is not None:
            record["state"] = [[at, values] for at, values in self._statescope.timeline]
        return record

    def _on_record(self, record: TraceRecord) -> None:
        if not self._active:
            return
        if self.limit and len(self.records) >= self.limit:
            self.dropped += 1
            return
        self.records.append(record)

    def stop(self) -> None:
        """Detach from the hub; buffered records remain readable."""
        if not self._active:
            return
        self._active = False
        for event in self.events:
            self.sim.trace.unsubscribe(event, self._on_record)

    #: Instrument protocol: the runner closes an instrument even when
    #: the run raises.
    close = stop

    def __len__(self) -> int:
        return len(self.records)

    def filter(self, name: Optional[str] = None, node: Optional[str] = None
               ) -> List[TraceRecord]:
        out = self.records
        if name is not None:
            out = [r for r in out if r.name == name]
        if node is not None:
            out = [r for r in out if r.payload.get("node") == node]
        return list(out)


def write_jsonl(records: Iterable[TraceRecord], path: str) -> int:
    """Persist records as JSON lines; returns the count written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(
                json.dumps(
                    {"event": record.name, "time": record.time, **record.payload}
                )
            )
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path: str) -> List[TraceRecord]:
    """Load records persisted by :func:`write_jsonl`."""
    records: List[TraceRecord] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            name = payload.pop("event")
            time = payload.pop("time")
            records.append(TraceRecord(name=name, time=time, payload=payload))
    return records


@dataclass
class TraceSummary:
    """Aggregate view of one capture."""

    total: int = 0
    by_event: Dict[str, int] = field(default_factory=dict)
    by_node: Dict[str, int] = field(default_factory=dict)
    first_time: Optional[float] = None
    last_time: Optional[float] = None

    def rate(self) -> float:
        """Records per virtual second across the captured span.

        Convention: an empty capture rates 0.0; a capture whose records
        all share one timestamp (including a single record) has no
        measurable span and is rated over a minimal 1-second window —
        i.e. ``float(total)`` — rather than silently reporting 0.0.
        """
        if self.total == 0 or self.first_time is None:
            return 0.0
        span = (self.last_time or 0.0) - self.first_time
        if span <= 0.0:
            return float(self.total)
        return self.total / span


def summarize(records: Sequence[TraceRecord]) -> TraceSummary:
    """Reduce a capture to counts and time bounds."""
    by_event: Counter = Counter()
    by_node: Counter = Counter()
    first = last = None
    for record in records:
        by_event[record.name] += 1
        node = record.payload.get("node") or record.payload.get("src")
        if node:
            by_node[node] += 1
        if first is None or record.time < first:
            first = record.time
        if last is None or record.time > last:
            last = record.time
    return TraceSummary(
        total=len(records),
        by_event=dict(by_event),
        by_node=dict(by_node),
        first_time=first,
        last_time=last,
    )
