"""Content Store: the per-router cache of Data packets.

Pervasive caching is the ICN fundamental that motivates TACTIC: any
router holding a copy becomes a *content router* for that name and must
enforce access control itself (Protocol 3).  The store is an exact-name
cache with optional capacity and a pluggable eviction policy:

- ``lru`` (default, what ndnSIM uses out of the box),
- ``fifo`` (cheapest; insertion order),
- ``lfu`` (frequency; retains the Zipf head, at O(n) eviction cost).

The policy only changes *which* victim is evicted — the TACTIC
protocols are policy-agnostic, which the cache-policy ablation tests
confirm.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.ndn.name import Name, NameLike
from repro.ndn.packets import Data

_POLICIES = ("lru", "fifo", "lfu")


class ContentStore:  # simlint: disable=SL014 (QA tests stub methods per instance)
    """Exact-match cache of Data packets.

    Parameters
    ----------
    capacity:
        Maximum number of Data packets held; 0 disables caching
        entirely (used for edge routers, which the paper models as
        non-caching — content routers are a subset of *core* routers).
    policy:
        Eviction policy: ``lru`` | ``fifo`` | ``lfu``.

    Both maps are keyed by the name's URI string (``name._uri``), whose
    hash CPython caches and compares in C; the methods take names.

    >>> from repro.ndn.packets import Data
    >>> cs = ContentStore(capacity=2)
    >>> cs.insert(Data(name=Name('/a/1')))
    >>> cs.insert(Data(name=Name('/a/2')))
    >>> cs.insert(Data(name=Name('/a/3')))  # evicts /a/1
    >>> cs.lookup('/a/1') is None
    True
    >>> cs.lookup('/a/3').name
    Name('/a/3')
    """

    def __init__(self, capacity: int = 1000, policy: str = "lru") -> None:
        if policy not in _POLICIES:
            raise ValueError(f"unknown eviction policy {policy!r}; expected {_POLICIES}")
        self.capacity = capacity
        self.policy = policy
        self._store: "OrderedDict[str, Data]" = OrderedDict()
        self._frequency: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Observability hook (``None`` = off): ``on_hit(name)`` fires on
        #: every successful lookup.  Wired by the owning node so the
        #: store itself stays simulator-free.
        self.on_hit: Optional[object] = None
        #: Optional :class:`~repro.qa.simsan.SimSan`; same ``None`` = off
        #: idiom.  Receives an occupancy-bound callback per insert.
        self.san: Optional[object] = None

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, name: NameLike) -> bool:
        return Name(name)._uri in self._store

    def insert(self, data: Data) -> None:
        """Cache ``data`` itself: the store takes ownership of the packet.

        Its per-request state (tag, NACK, F flag) is stripped *in place*
        to make cached content request-neutral.  The caller must not
        read those fields, or hand the packet to anyone, afterwards.
        Every reader gets a fresh copy from :meth:`lookup`.
        """
        if self.capacity <= 0:
            return
        data.tag = None
        data.nack = None
        data.flag_f = 0.0
        name = data.name
        if type(name) is not Name:
            name = Name(name)
        key = name._uri
        store = self._store
        if key in store:
            if self.policy == "lru":
                store.move_to_end(key)
            store[key] = data
            return
        store[key] = data
        if self.policy == "lfu":
            # Only lfu eviction reads frequencies, so only lfu keeps them.
            self._frequency[key] = self._frequency.get(key, 0)
        if len(store) > self.capacity:
            self._evict_one()
        if self.san is not None:
            self.san.cs_insert(self)

    def _evict_one(self) -> None:
        if self.policy == "lfu":
            victim = min(self._store, key=lambda n: (self._frequency.get(n, 0),))
            del self._store[victim]
            self._frequency.pop(victim, None)
        else:
            # lru and fifo both evict the front; they differ in whether
            # lookups refresh an entry's position.
            self._store.popitem(last=False)
        self.evictions += 1

    def lookup(self, name: NameLike, now: Optional[float] = None) -> Optional[Data]:
        """Exact-match lookup; returns a fresh copy or None."""
        if type(name) is not Name:
            name = Name(name)
        key = name._uri
        data = self._store.get(key)
        if data is None:
            self.misses += 1
            return None
        policy = self.policy
        if policy == "lru":
            self._store.move_to_end(key)
        elif policy == "lfu":
            self._frequency[key] = self._frequency.get(key, 0) + 1
        self.hits += 1
        if self.on_hit is not None:
            self.on_hit(name)
        return data.copy()

    def evict(self, name: NameLike) -> bool:
        key = Name(name)._uri
        self._frequency.pop(key, None)
        return self._store.pop(key, None) is not None

    def clear(self) -> None:
        self._store.clear()
        self._frequency.clear()

    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def state_cost(self) -> Dict[str, int]:
        """Statescope accounting: cached packets + deep bytes.

        Only the owned containers are traversed; the shared sizeof memo
        inside :func:`~repro.obs.statescope.deep_sizeof` keeps names
        referenced by both maps billed once.
        """
        from repro.obs.statescope import deep_sizeof

        seen: set = set()
        size = deep_sizeof(self._store, seen) + deep_sizeof(self._frequency, seen)
        return {"entries": len(self._store), "bytes": size}
