"""Pending Interest Table with TACTIC's extended aggregation records.

Conventional NDN aggregates by remembering incoming faces per name.
TACTIC additionally stores, per aggregated request, the 3-tuple
``<Tu, F, InFace>`` (Protocol 4, line 4) so that, when content arrives,
the router can validate every aggregated tag individually and decide
per-downstream whether to deliver content or content+NACK.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.ndn.name import Name, NameLike


@dataclass(slots=True)
class PitRecord:
    """One aggregated request: the paper's ``<Tu, F, InFace>`` tuple."""

    tag: Optional[Any]
    flag_f: float
    in_face: Any
    arrived_at: float
    requester_id: str = ""
    nonce: int = 0


@dataclass(slots=True)
class PitEntry:
    """All pending requests for one content name.

    A packed array-of-structs: the records list holds ``__slots__``
    :class:`PitRecord` instances contiguously, so per-entry state is a
    handful of machine words instead of per-record ``__dict__`` churn.
    """

    name: Name
    records: List[PitRecord]
    created_at: float
    expires_at: float

    def add(self, record: PitRecord) -> None:
        self.records.append(record)

    def faces(self) -> List[Any]:
        return [r.in_face for r in self.records]


class Pit:
    """Name-indexed pending-interest table with lazy expiry.

    ``capacity`` (0 = unlimited) bounds the number of simultaneous
    entries: a router under interest-flooding pressure sheds *new*
    names once full (after purging expired state) rather than growing
    without bound — the standard NDN PIT-exhaustion defence.
    """

    __slots__ = (
        "entry_lifetime", "capacity", "_entries", "expired_records",
        "rejections", "on_timeout", "on_aggregate", "san",
    )

    def __init__(self, entry_lifetime: float = 2.0, capacity: int = 0) -> None:
        self.entry_lifetime = entry_lifetime
        self.capacity = capacity
        self._entries: Dict[Name, PitEntry] = {}
        self.expired_records = 0
        self.rejections = 0
        #: Observability hooks (``None`` = off).  The owning node wires
        #: these to its trace hub; the table itself stays simulator-free.
        #: ``on_timeout(name, num_records)`` fires when an expired entry
        #: is purged; ``on_aggregate(name, record)`` when a request rides
        #: an in-flight entry instead of being forwarded.
        self.on_timeout: Optional[Any] = None
        self.on_aggregate: Optional[Any] = None
        #: Optional :class:`~repro.qa.simsan.SimSan`; same ``None`` = off
        #: idiom.  Receives record-conservation and occupancy callbacks.
        self.san: Optional[Any] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: NameLike) -> bool:
        return self.find(Name(name)) is not None

    def state_cost(self) -> Dict[str, int]:
        """Statescope accounting: live entries/records + deep bytes.

        Passes the owned entry map (never ``self``) so the traversal
        stays inside PIT state — observability hooks hanging off the
        table are not part of its footprint.
        """
        from repro.obs.statescope import deep_sizeof

        records = sum(len(entry.records) for entry in self._entries.values())
        return {
            "entries": len(self._entries),
            "records": records,
            "bytes": deep_sizeof(self._entries),
        }

    def find(self, name: NameLike, now: Optional[float] = None) -> Optional[PitEntry]:
        """Return the live entry for ``name``; expired entries are purged."""
        if type(name) is not Name:
            name = Name(name)
        entry = self._entries.get(name)
        if entry is None:
            return None
        if now is not None and now > entry.expires_at:
            self.expired_records += len(entry.records)
            del self._entries[name]
            if self.on_timeout is not None:
                self.on_timeout(name, len(entry.records))
            if self.san is not None:
                self.san.pit_expire(self, len(entry.records))
            return None
        return entry

    def insert(
        self,
        name: NameLike,
        record: PitRecord,
        now: float,
    ) -> bool:
        """Add a record; returns True if this created a new entry.

        A True return means the caller should forward the Interest
        upstream; False means it was aggregated onto an in-flight one —
        or, when the table is at capacity, shed entirely (the record is
        dropped and ``rejections`` incremented; the requester recovers
        via its request expiry).
        """
        if type(name) is not Name:
            name = Name(name)
        entry = self.find(name, now)
        if entry is None:
            if self.capacity and len(self._entries) >= self.capacity:
                self.purge_expired(now)
                if len(self._entries) >= self.capacity:
                    self.rejections += 1
                    if self.san is not None:
                        self.san.pit_reject(self)
                    return False
            self._entries[name] = PitEntry(
                name=name,
                records=[record],
                created_at=now,
                expires_at=now + self.entry_lifetime,
            )
            if self.san is not None:
                self.san.pit_insert(self, aggregated=False)
            return True
        entry.add(record)
        if self.on_aggregate is not None:
            self.on_aggregate(name, record)
        if self.san is not None:
            self.san.pit_insert(self, aggregated=True)
        return False

    def consume(self, name: NameLike, now: Optional[float] = None) -> Optional[PitEntry]:
        """Remove and return the entry for ``name`` (Data arrival)."""
        if type(name) is not Name:
            name = Name(name)
        entry = self.find(name, now)
        if entry is not None:
            del self._entries[name]
            if self.san is not None:
                self.san.pit_consume(self, entry)
        return entry

    def drop_record(
        self, name: NameLike, predicate: Callable[[PitRecord], bool]
    ) -> int:
        """Remove records matching ``predicate``; returns count removed.

        Used by edge routers on NACK arrival: "rE drops the request with
        Tu from its PIT" (Protocol 2, lines 19-20).
        """
        if type(name) is not Name:
            name = Name(name)
        entry = self._entries.get(name)
        if entry is None:
            return 0
        before = len(entry.records)
        entry.records = [r for r in entry.records if not predicate(r)]
        removed = before - len(entry.records)
        if not entry.records:
            del self._entries[name]
        if removed and self.san is not None:
            self.san.pit_drop(self, removed)
        return removed

    def purge_expired(self, now: float) -> int:
        """Drop every expired entry; returns number of records dropped."""
        dead = [name for name, e in self._entries.items() if now > e.expires_at]
        dropped = 0
        for name in dead:
            records = len(self._entries[name].records)
            dropped += records
            del self._entries[name]
            if self.on_timeout is not None:
                self.on_timeout(name, records)
        self.expired_records += dropped
        if dropped and self.san is not None:
            self.san.pit_expire(self, dropped)
        return dropped
