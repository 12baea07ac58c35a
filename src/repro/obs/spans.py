"""Interest-lifecycle spans: per-request latency decomposition.

Every Interest a client issues opens a *span*, identified by the
Interest's nonce (globally unique per process).  As the request and its
answering Data traverse the network, the substrate emits ``span.*``
trace events through the normal :class:`~repro.sim.tracing.TraceHub`:

==================  ====================================================
``span.start``      client issued the Interest
                    (``span, node, content, kind``)
``span.link``       one hop traversal; ``queue`` (wait behind earlier
                    transmissions) + ``tx`` (serialization) + ``prop``
                    (propagation) sum exactly to the hop's latency
``span.compute``    injected processing delay at a node (crypto, BF
                    work) covering ``dur`` seconds before the send
``span.serve``      a content store / origin answered the request
                    (zero-duration mark)
``span.pit.wait``   the request parked on an existing PIT entry
                    (aggregation; zero-duration mark)
``span.drop``       a link swallowed a packet of this span
``span.end``        client observed the outcome
                    (``outcome`` = data | nack | timeout | retransmit |
                    tag, plus the measured ``latency``)
==================  ====================================================

:class:`SpanBuilder` folds a record stream back into :class:`Span`
objects; :meth:`Span.decompose` splits the measured end-to-end latency
into per-kind totals plus a derived ``wait`` bucket (time the request
spent parked in PIT entries or otherwise uncovered), so the parts sum
*exactly* to the measured latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.sim.engine import Simulator
from repro.sim.tracing import TraceRecord

#: Every span event the substrate emits.
SPAN_EVENTS = (
    "span.start",
    "span.link",
    "span.compute",
    "span.serve",
    "span.pit.wait",
    "span.drop",
    "span.end",
)

#: Segment kinds a decomposition can contain (``wait`` is derived).
SEGMENT_KINDS = ("queue", "tx", "prop", "compute")


@dataclass
class Segment:
    """One covered slice of a span's timeline."""

    kind: str  # queue | tx | prop | compute
    start: float
    duration: float
    src: str = ""
    dst: str = ""


@dataclass
class Mark:
    """A zero-duration annotation (serve, pit.wait, drop)."""

    kind: str
    time: float
    node: str = ""
    detail: str = ""


@dataclass
class Span:
    """One Interest's reconstructed lifecycle."""

    span_id: int
    node: str = ""
    content: str = ""
    kind: str = ""  # content | registration
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    outcome: Optional[str] = None  # data | nack | timeout | retransmit | tag
    latency: Optional[float] = None
    segments: List[Segment] = field(default_factory=list)
    marks: List[Mark] = field(default_factory=list)

    @property
    def ended(self) -> bool:
        return self.outcome is not None

    def covered(self) -> float:
        """Seconds of the lifecycle explained by explicit segments."""
        return sum(segment.duration for segment in self.segments)

    def decompose(self) -> Dict[str, float]:
        """Split the measured latency into per-kind totals.

        Returns ``{queue, tx, prop, compute, wait}`` where ``wait`` is
        the derived remainder (``latency - covered``): time spent parked
        on PIT entries awaiting an aggregated answer, or otherwise not
        covered by an explicit segment.  By construction the five values
        sum exactly to ``latency`` (when the span ended; an open span
        decomposes its covered time only, with ``wait = 0``).
        """
        totals = {kind: 0.0 for kind in SEGMENT_KINDS}
        for segment in self.segments:
            totals[segment.kind] += segment.duration
        if self.latency is not None:
            totals["wait"] = self.latency - self.covered()
        else:
            totals["wait"] = 0.0
        return totals

    def hops(self) -> List[str]:
        """Node sequence of link traversals, in emission order."""
        out: List[str] = []
        for segment in self.segments:
            if segment.kind == "queue" and segment.src:
                out.append(segment.src)
        return out


class SpanBuilder:
    """Folds ``span.*`` trace records into :class:`Span` objects.

    Records arriving after a span ended are ignored — a retransmitted
    request closes its old span (outcome ``retransmit``) and opens a
    fresh one under the new nonce, but late copies of the *old* answer
    can still trickle in.
    """

    def __init__(self) -> None:
        self.spans: Dict[int, Span] = {}
        self.orphans = 0  # records whose span never started

    def _span(self, record: TraceRecord) -> Optional[Span]:
        span = self.spans.get(record.payload["span"])
        if span is None:
            self.orphans += 1
            return None
        return span if not span.ended else None

    def add(self, record: TraceRecord) -> None:
        payload = record.payload
        name = record.name
        if name == "span.start":
            self.spans[payload["span"]] = Span(
                span_id=payload["span"],
                node=payload.get("node", ""),
                content=payload.get("content", ""),
                kind=payload.get("kind", ""),
                start_time=record.time,
            )
            return
        if name == "span.link":
            span = self._span(record)
            if span is None:
                return
            src, dst = payload.get("src", ""), payload.get("dst", "")
            offset = record.time
            for kind in ("queue", "tx", "prop"):
                duration = payload[kind]
                span.segments.append(
                    Segment(kind=kind, start=offset, duration=duration, src=src, dst=dst)
                )
                offset += duration
            return
        if name == "span.compute":
            span = self._span(record)
            if span is not None:
                span.segments.append(
                    Segment(
                        kind="compute",
                        start=record.time,
                        duration=payload["dur"],
                        src=payload.get("node", ""),
                    )
                )
            return
        if name == "span.end":
            span = self._span(record)
            if span is not None:
                span.end_time = record.time
                span.outcome = payload.get("outcome")
                span.latency = payload.get("latency")
            return
        if name in ("span.serve", "span.pit.wait", "span.drop"):
            span = self._span(record)
            if span is not None:
                span.marks.append(
                    Mark(
                        kind=name[len("span."):],
                        time=record.time,
                        node=payload.get("node", payload.get("src", "")),
                        detail=payload.get("reason", ""),
                    )
                )
            return
        # Unknown span event: tolerate forward evolution.

    def add_all(self, records: Iterable[TraceRecord]) -> "SpanBuilder":
        for record in records:
            self.add(record)
        return self

    def ended(self) -> List[Span]:
        return [span for span in self.spans.values() if span.ended]


class SpanRecorder:
    """Live subscription: builds spans as the simulation runs."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.builder = SpanBuilder()
        for event in SPAN_EVENTS:
            sim.trace.subscribe(event, self.builder.add)

    @property
    def spans(self) -> Dict[int, Span]:
        return self.builder.spans

    def stop(self) -> None:
        for event in SPAN_EVENTS:
            self.sim.trace.unsubscribe(event, self.builder.add)


def spans_from_records(records: Iterable[TraceRecord]) -> Dict[int, Span]:
    """Offline reconstruction from a persisted trace (JSONL round-trip)."""
    return SpanBuilder().add_all(
        record for record in records if record.name.startswith("span.")
    ).spans
