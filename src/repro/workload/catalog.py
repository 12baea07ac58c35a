"""The global content catalog users choose from.

Flattens every provider's published objects into one popularity-ranked
list (the paper's Zipf distribution runs over contents, with each of
the 10 providers contributing 50 objects of 50 chunks).  Entries carry
the access level so clients can restrict selection to objects their
tag satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.ndn.name import Name
from repro.sim.rng import seeded_stream


@dataclass(frozen=True)
class CatalogEntry:
    """One requestable object."""

    provider_id: str
    prefix: Name
    access_level: Optional[int]
    num_chunks: int

    def chunk_name(self, index: int) -> Name:
        return self.prefix.append(f"chunk-{index}")


class Catalog:
    """Popularity-ranked list of all published objects."""

    def __init__(self, entries: List[CatalogEntry], shuffle_seed: Optional[int] = None) -> None:
        self.entries = list(entries)
        if shuffle_seed is not None:
            # Interleave providers in the popularity ranking so rank 1
            # is not always provider 0's first object.
            seeded_stream(shuffle_seed).shuffle(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index: int) -> CatalogEntry:
        return self.entries[index]

    def accessible_to(self, access_level: Optional[int]) -> "Catalog":
        """The sub-catalog a tag at ``access_level`` may retrieve.

        Order (and therefore relative popularity rank) is preserved.
        """
        # Imported here, not at module level: repro.core's package init
        # pulls in the client, which imports this module (cycle).
        from repro.core.access_level import satisfies

        return Catalog(
            [e for e in self.entries if satisfies(access_level, e.access_level)]
        )

    def private_only(self) -> "Catalog":
        """Only access-controlled objects (what attackers target)."""
        return Catalog([e for e in self.entries if e.access_level is not None])


def build_catalog(providers: Iterable, shuffle_seed: Optional[int] = 0) -> Catalog:
    """Build the global catalog from :class:`~repro.core.provider.Provider`
    instances (anything exposing ``node_id`` and ``catalog``)."""
    entries = [
        CatalogEntry(
            provider_id=provider.node_id,
            prefix=obj.prefix,
            access_level=obj.access_level,
            num_chunks=obj.num_chunks,
        )
        for provider in providers
        for obj in provider.catalog
    ]
    return Catalog(entries, shuffle_seed=shuffle_seed)
