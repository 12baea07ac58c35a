"""The Bloom filter used by TACTIC routers.

Follows the paper's simulation configuration: a filter is constructed
for a *capacity* (number of tags to index: 500/1000/1500 in Fig. 5,
5000 in Table V), a fixed number of hash functions (5), and a maximum
false-positive probability (1e-4 or 1e-2).  The bit count is derived so
the FPP estimate reaches the maximum exactly at capacity.  "To avoid
additional false positives ... each router automatically resets its BF
when it is saturated (its FPP reaches the maximum FPP)" — callers check
:meth:`is_saturated` after inserts and call :meth:`reset`.

Hashing uses the Kirsch-Mitzenmatcher double-hashing scheme over a
single BLAKE2b digest: index_i = (h1 + i*h2) mod m.  The k indices of a
key are memoized per ``(item, m, k)`` (:func:`_probes`): a client sends
every request under one tag, so a router probes the same few hundred
keys thousands of times.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Tuple, Union

from repro.filters.params import estimate_fpp, size_for_capacity

Item = Union[bytes, bytearray, str]

#: ``int.bit_count`` is Python 3.10+; resolved once so the fallback
#: branch costs nothing on modern interpreters.
_BIT_COUNT = getattr(int, "bit_count", None)


def _item_bytes(item: Item) -> bytes:
    if isinstance(item, str):
        return item.encode("utf-8")
    return bytes(item)


#: Entries the probe memo keeps (least recently used evicted first).
#: One entry is the key tuple plus a k-tuple of ints, ~0.4 KiB at k = 5,
#: so the memo stays under ~2 MiB however many distinct tags a run sees.
PROBE_MEMO_SIZE = 4096


@lru_cache(maxsize=PROBE_MEMO_SIZE)
def _probes(item: Union[bytes, str], size_bits: int, num_hashes: int) -> Tuple[int, ...]:
    """The ``num_hashes`` bit indices of ``item`` in a ``size_bits``-bit
    filter, in probe order (``bytearray`` items are converted by the
    caller: the memo needs a hashable key)."""
    digest = hashlib.blake2b(_item_bytes(item), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1  # odd => full-period stride
    return tuple((h1 + i * h2) % size_bits for i in range(num_hashes))


def _popcount(value: int) -> int:
    if _BIT_COUNT is not None:
        return int(_BIT_COUNT(value))
    return bin(value).count("1")  # pragma: no cover - Python 3.9 only


class BloomFilter:
    """Fixed-size Bloom filter with FPP tracking and saturation resets.

    Parameters
    ----------
    capacity:
        Number of items the filter is sized to hold at ``sizing_fpp``.
    max_fpp:
        False-positive probability at which the filter is *saturated*
        (the reset threshold).  Independent of the bit sizing: raising
        it lets a fixed-size filter absorb more inserts between resets,
        which is exactly the FPP lever the paper's Fig. 8 sweeps.
    num_hashes:
        Number of hash functions (the paper uses 5).
    sizing_fpp:
        Reference FPP used to derive the bit count from ``capacity``
        (defaults to the paper's baseline 1e-4).
    size_bits:
        Override the derived bit count (rarely needed).

    >>> bf = BloomFilter(capacity=100, max_fpp=1e-4)
    >>> bf.insert(b'tag-1')
    >>> bf.contains(b'tag-1')
    True
    >>> bf.contains(b'tag-2')
    False
    """

    def __init__(
        self,
        capacity: int,
        max_fpp: float = 1e-4,
        num_hashes: int = 5,
        sizing_fpp: float = 1e-4,
        size_bits: int = 0,
    ) -> None:
        self.capacity = capacity
        self.max_fpp = max_fpp
        self.num_hashes = num_hashes
        self.sizing_fpp = sizing_fpp
        self.size_bits = size_bits or size_for_capacity(capacity, sizing_fpp, num_hashes)
        self._bits = bytearray((self.size_bits + 7) // 8)
        self.count = 0
        # Lifetime statistics (survive resets) — consumed by Fig. 7/8
        # and Table V reproductions.
        self.total_inserts = 0
        self.total_lookups = 0
        self.reset_count = 0
        self.lookups_since_reset = 0
        #: Optional :class:`~repro.qa.simsan.SimSan` (``None`` = off).
        #: Receives per-insert count checks and sampled fill checks.
        self.san = None

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def insert(self, item: Item) -> None:
        """Insert ``item``; counts every call (duplicates included) for FPP."""
        if type(item) is bytearray:
            item = bytes(item)
        bits = self._bits
        for idx in _probes(item, self.size_bits, self.num_hashes):
            bits[idx >> 3] |= 1 << (idx & 7)
        self.count += 1
        self.total_inserts += 1
        if self.san is not None:
            self.san.bf_insert(self)

    def contains(self, item: Item) -> bool:
        """Membership test; false positives possible, negatives exact."""
        self.total_lookups += 1
        self.lookups_since_reset += 1
        if type(item) is bytearray:
            item = bytes(item)
        bits = self._bits
        for idx in _probes(item, self.size_bits, self.num_hashes):
            if not (bits[idx >> 3] >> (idx & 7)) & 1:
                return False
        return True

    def __contains__(self, item: Item) -> bool:
        return self.contains(item)

    # ------------------------------------------------------------------
    # Saturation / reset (paper Section 8.A)
    # ------------------------------------------------------------------
    def current_fpp(self) -> float:
        """FPP estimate from the insert count (the paper's saturation test)."""
        return estimate_fpp(self.size_bits, self.num_hashes, self.count)

    def is_saturated(self) -> bool:
        """True when the FPP estimate has reached the configured maximum."""
        return self.current_fpp() >= self.max_fpp

    def reset(self) -> None:
        """Clear all bits; lifetime statistics are preserved.

        One fresh zeroed bytearray beats writing every byte in a Python
        loop — resets fire thousands of times in the small-filter runs.
        """
        self._bits = bytearray(len(self._bits))
        self.count = 0
        self.reset_count += 1
        self.lookups_since_reset = 0
        if self.san is not None:
            self.san.bf_reset(self)

    def insert_with_auto_reset(self, item: Item) -> bool:
        """Insert, then reset if saturated.  Returns True if a reset fired."""
        self.insert(item)
        if self.is_saturated():
            self.reset()
            return True
        return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def fill_ratio(self) -> float:
        """Fraction of bits set (exact; one big-int popcount, no
        per-byte Python loop)."""
        set_bits = _popcount(int.from_bytes(self._bits, "big"))
        return set_bits / self.size_bits

    def state_cost(self) -> dict:
        """Statescope accounting: set-bit population + deep bytes.

        The bit array *is* the filter's state — TACTIC's bounded-state
        claim in one number — so only ``_bits`` is traversed.
        """
        from repro.obs.statescope import deep_sizeof

        set_bits = _popcount(int.from_bytes(self._bits, "big"))
        return {
            "bits_set": set_bits,
            "size_bits": self.size_bits,
            "bytes": deep_sizeof(self._bits),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BloomFilter(capacity={self.capacity}, m={self.size_bits}, "
            f"k={self.num_hashes}, n={self.count}, fpp={self.current_fpp():.2e})"
        )
