"""Trace hooks: a minimal publish/subscribe bus for simulation metrics.

Components emit named trace records; metric collectors subscribe to the
names they care about.  This decouples protocol code from measurement
code, mirroring ns-3's trace-source design without its ceremony.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One emitted trace sample."""

    name: str
    time: float
    payload: Dict[str, Any] = field(default_factory=dict)


Subscriber = Callable[[TraceRecord], None]


class TraceHub:  # simlint: disable=SL014 (one per sim; instruments attach attributes)
    """Routes trace records to subscribers by exact name or wildcard.

    Subscribing to ``"*"`` receives every record; otherwise only records
    whose ``name`` matches exactly are delivered.
    """

    def __init__(self) -> None:
        self._subs: Dict[str, List[Subscriber]] = {}
        self.enabled = True
        self._n_subs = 0

    def subscribe(self, name: str, fn: Subscriber) -> None:
        self._subs.setdefault(name, []).append(fn)
        self._n_subs += 1

    def unsubscribe(self, name: str, fn: Subscriber) -> None:
        handlers = self._subs.get(name, [])
        if fn in handlers:
            handlers.remove(fn)
            self._n_subs -= 1

    @property
    def active(self) -> bool:
        """True when at least one subscriber exists (and the hub is on).

        Emitters with non-trivial payload construction check this single
        attribute first so that a run with no telemetry attached pays
        nothing beyond one attribute read.
        """
        return self.enabled and self._n_subs > 0

    def wants(self, name: str) -> bool:
        """Would a record named ``name`` reach any subscriber?

        Use this to guard emissions whose payload is expensive to build
        (span segments, per-hop detail); ``emit`` performs the same test
        internally, but only after the caller has built the payload.
        """
        if not self.enabled:
            return False
        return bool(self._subs.get(name) or self._subs.get("*"))

    def emit(self, name: str, time: float, **payload: Any) -> None:
        """Publish a record; cheap no-op when nothing is listening."""
        if not self.enabled:
            return
        exact = self._subs.get(name)
        star = self._subs.get("*")
        if not exact and not star:
            return
        record = TraceRecord(name=name, time=time, payload=payload)
        if exact:
            for fn in list(exact):
                fn(record)
        if star:
            for fn in list(star):
                fn(record)
