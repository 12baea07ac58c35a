"""Hierarchical NDN names.

Names are immutable sequences of non-empty string components, written
in URI form as ``/component/component/...``, and the URI is one-to-one
with the name (``Name(n.to_uri()) == n``), which is what lets the
per-hop tables key by it.  The empty name (``/``) is the root and is a
prefix of every name.  Longest-prefix matching over names drives
FIB lookups; exact matching drives PIT and content-store lookups.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple, Union

NameLike = Union["Name", str, Iterable[str]]


class Name:
    """An immutable hierarchical name.

    >>> n = Name('/prov-0/obj-3/chunk-7')
    >>> len(n)
    3
    >>> n.prefix(1)
    Name('/prov-0')
    >>> Name('/prov-0').is_prefix_of(n)
    True
    >>> n / 'meta'
    Name('/prov-0/obj-3/chunk-7/meta')
    """

    __slots__ = ("components", "_uri", "_hash", "_esize")

    def __new__(cls, value: NameLike = ()) -> "Name":
        # Fast path: Name(name) returns the same immutable instance, so
        # hot call sites can normalize without allocation or rehashing.
        if type(value) is cls:
            return value
        return super().__new__(cls)

    def __init__(self, value: NameLike = ()) -> None:
        if value is self:
            return  # already-initialized instance returned by __new__
        if isinstance(value, Name):
            components: Tuple[str, ...] = value.components
        elif isinstance(value, str):
            stripped = value.strip("/")
            components = tuple(c for c in stripped.split("/") if c) if stripped else ()
        else:
            components = tuple(str(c) for c in value)
        for component in components:
            if not component or "/" in component:
                raise ValueError(
                    f"name component may not be empty or contain '/': {component!r}"
                )
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_uri", "/" + "/".join(components))
        object.__setattr__(self, "_hash", hash(components))
        # Wire size is fixed by the (immutable) components, so it is
        # computed once here instead of per size_bytes() call on the
        # forwarding hot path.
        object.__setattr__(
            self, "_esize", 2 * len(components) + sum(map(len, components))
        )

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Name is immutable")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, index: int) -> str:
        return self.components[index]

    def __iter__(self) -> Iterator[str]:
        return iter(self.components)

    def prefix(self, length: int) -> "Name":
        """The first ``length`` components as a new name."""
        return Name(self.components[:length])

    @property
    def parent(self) -> "Name":
        if not self.components:
            raise ValueError("root name has no parent")
        return Name(self.components[:-1])

    def append(self, *components: str) -> "Name":
        """The child name ``self + components``.

        Built from this name's cached fields, validating only the new
        components (one ``chunk_name`` per client Interest comes through
        here).  A component that is not a ``str``, is empty or contains
        ``/`` takes the generic constructor, which converts or rejects
        it.
        """
        if not components:
            return self
        for component in components:
            if type(component) is not str or not component or "/" in component:
                return Name(self.components + components)
        child = object.__new__(Name)
        joined = self.components + components
        tail = "/".join(components)
        setattr_ = object.__setattr__
        setattr_(child, "components", joined)
        setattr_(child, "_uri", self._uri + "/" + tail if self.components else "/" + tail)
        setattr_(child, "_hash", hash(joined))
        setattr_(
            child, "_esize",
            self._esize + 2 * len(components) + sum(map(len, components)),
        )
        return child

    def __truediv__(self, component: str) -> "Name":
        return self.append(component)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def is_prefix_of(self, other: NameLike) -> bool:
        if type(other) is not Name:
            other = Name(other)
        components = self.components
        return other.components[: len(components)] == components

    # ------------------------------------------------------------------
    # Equality / representation
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Name):
            return self.components == other.components
        if isinstance(other, str):
            return self == Name(other)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Name") -> bool:
        return self.components < Name(other).components

    def to_uri(self) -> str:
        return self._uri

    def __str__(self) -> str:
        return self._uri

    def __repr__(self) -> str:
        return f"Name({self._uri!r})"

    def encoded_size(self) -> int:
        """Approximate wire size: 2 bytes TLV per component + text."""
        return self._esize
