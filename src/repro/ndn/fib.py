"""Forwarding Information Base with longest-prefix matching.

Each prefix maps to a *ranked nexthop set* (face + cost pairs, cheapest
first), which is what real NDN FIBs hold: the forwarding strategy
(:mod:`repro.ndn.strategy`) then decides whether to use the best hop,
multicast to all of them, or balance across them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ndn.name import Name, NameLike


@dataclass(frozen=True, slots=True)
class NextHop:
    """One candidate upstream face for a prefix."""

    face: object
    cost: float = 0.0


class Fib:
    """Maps name prefixes to ranked nexthop sets.

    Lookup walks from the longest installed prefix length (or the full
    name, if shorter) down to the root, returning the entry with the
    longest matching prefix — the standard NDN forwarding rule.

    >>> fib = Fib()
    >>> fib.add('/prov-0', face='f1', cost=2)
    >>> fib.add('/prov-0/premium', face='f2', cost=1)
    >>> fib.lookup('/prov-0/premium/obj/chunk')
    'f2'
    >>> fib.lookup('/prov-0/obj')
    'f1'
    >>> fib.lookup('/other') is None
    True
    """

    __slots__ = ("_entries", "_max_len")

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, ...], List[NextHop]] = {}
        # Component count of the longest prefix ever added: no lookup
        # can match deeper, so the walk starts here instead of at the
        # full name.  Removals leave it as an upper bound.
        self._max_len = 0

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, prefix: NameLike, face: object, cost: float = 0.0) -> None:
        """Insert or re-rank a nexthop for ``prefix``.

        Duplicate faces update their cost; the hop list stays sorted
        cheapest-first.
        """
        key = Name(prefix).components
        hops = [h for h in self._entries.get(key, []) if h.face is not face]
        hops.append(NextHop(face=face, cost=cost))
        hops.sort(key=lambda h: h.cost)
        self._entries[key] = hops
        if len(key) > self._max_len:
            self._max_len = len(key)

    def add_if_cheaper(self, prefix: NameLike, face: object, cost: float) -> bool:
        """Add the hop unless an existing one is at least as cheap.

        (Used by route assembly so only the shortest-path nexthop —
        plus any added alternates — survives.)
        """
        key = Name(prefix).components
        hops = self._entries.get(key)
        if hops and hops[0].cost <= cost and hops[0].face is not face:
            return False
        self.add(prefix, face, cost)
        return True

    def remove(self, prefix: NameLike) -> None:
        self._entries.pop(Name(prefix).components, None)

    def remove_nexthop(self, prefix: NameLike, face: object) -> bool:
        """Drop one face from a prefix's hop set (link-failure repair)."""
        key = Name(prefix).components
        hops = self._entries.get(key)
        if not hops:
            return False
        kept = [h for h in hops if h.face is not face]
        if len(kept) == len(hops):
            return False
        if kept:
            self._entries[key] = kept
        else:
            del self._entries[key]
        return True

    def lookup(self, name: NameLike) -> Optional[object]:
        """Longest-prefix-match; returns the best face or None."""
        hops = self.lookup_nexthops(name)
        return hops[0].face if hops else None

    def lookup_entry(self, name: NameLike) -> Optional[Tuple[object, float]]:
        """Back-compat view: (best face, its cost)."""
        hops = self.lookup_nexthops(name)
        if not hops:
            return None
        return (hops[0].face, hops[0].cost)

    def lookup_nexthops(self, name: NameLike) -> List[NextHop]:
        """All candidate hops for the longest matching prefix."""
        if type(name) is Name:
            components = name.components
        else:
            components = Name(name).components
        entries = self._entries
        for length in range(min(len(components), self._max_len), -1, -1):
            hops = entries.get(components[:length])
            if hops is not None:
                return hops
        return []

    def purge_face(self, face: object) -> int:
        """Remove ``face`` from every entry (its link died); returns the
        number of entries touched."""
        touched = 0
        for key in list(self._entries):
            hops = self._entries[key]
            kept = [h for h in hops if h.face is not face]
            if len(kept) != len(hops):
                touched += 1
                if kept:
                    self._entries[key] = kept
                else:
                    del self._entries[key]
        return touched

    def prefixes(self) -> list:
        return [Name(components) for components in self._entries]

    def state_cost(self) -> Dict[str, int]:
        """Statescope accounting: routed prefixes + deep bytes."""
        from repro.obs.statescope import deep_sizeof

        return {"entries": len(self._entries), "bytes": deep_sizeof(self._entries)}
