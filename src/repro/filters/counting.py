"""Counting Bloom filter: membership with deletion.

Not used by the paper's core protocols (plain filters reset on
saturation), but provided for the traitor-tracing / explicit-revocation
extension sketched in the paper's future work: a provider could ask
routers to *remove* a specific revoked tag instead of waiting for
expiry, which requires counters rather than bits.
"""

from __future__ import annotations

from typing import Tuple

from repro.filters.bloom import Item, _probes
from repro.filters.params import estimate_fpp, size_for_capacity


class CountingBloomFilter:
    """Bloom filter with 16-bit counters per cell, supporting removal."""

    def __init__(
        self,
        capacity: int,
        max_fpp: float = 1e-4,
        num_hashes: int = 5,
        size_cells: int = 0,
    ) -> None:
        self.capacity = capacity
        self.max_fpp = max_fpp
        self.num_hashes = num_hashes
        self.size_cells = size_cells or size_for_capacity(capacity, max_fpp, num_hashes)
        self._cells = [0] * self.size_cells
        self.count = 0

    def _indices(self, item: Item) -> Tuple[int, ...]:
        if type(item) is bytearray:
            item = bytes(item)
        return _probes(item, self.size_cells, self.num_hashes)

    def insert(self, item: Item) -> None:
        for idx in self._indices(item):
            if self._cells[idx] < 0xFFFF:
                self._cells[idx] += 1
        self.count += 1

    def remove(self, item: Item) -> bool:
        """Remove one occurrence; returns False if the item was absent.

        Removing an absent item would corrupt other entries, so we check
        membership first (standard counting-filter discipline).
        """
        indices = self._indices(item)
        if any(self._cells[idx] == 0 for idx in indices):
            return False
        for idx in indices:
            self._cells[idx] -= 1
        self.count = max(0, self.count - 1)
        return True

    def contains(self, item: Item) -> bool:
        return all(self._cells[idx] > 0 for idx in self._indices(item))

    def __contains__(self, item: Item) -> bool:
        return self.contains(item)

    def current_fpp(self) -> float:
        return estimate_fpp(self.size_cells, self.num_hashes, self.count)

    def is_saturated(self) -> bool:
        return self.current_fpp() >= self.max_fpp
