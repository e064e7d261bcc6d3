"""A bisect-backed sorted sequence used as a sweep-line status structure.

Algorithm 1 of the paper stores the line status in "a balanced search tree
in which the data are stored in the doubly linked leaf nodes (e.g., a
B+-tree)".  In CPython, an array with memmove-based inserts is the fastest
practical realization of the same ordered-set interface for the sizes the
sweep touches: it matched a B+-tree with linked leaves and beat a skip
list (see ``docs/performance.md``).  It implements the ``StatusStructure``
protocol below.

Keys are arbitrary comparable tuples whose first component is the "value"
(the y-coordinate); range operations take *values* and therefore cover all
tie-broken keys sharing that value.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Protocol

__all__ = ["SortedKeyList", "StatusStructure"]


class StatusStructure(Protocol):
    """Ordered-key container interface shared by sweep status backends."""

    def insert(self, key: tuple) -> None: ...

    def remove(self, key: tuple) -> None: ...

    def iter_from_value(self, lo: float) -> Iterator[tuple]: ...

    def pred_of_value(self, lo: float) -> "tuple | None": ...

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[tuple]: ...


class SortedKeyList:
    """Sorted list of unique comparable tuples with bisect operations."""

    __slots__ = ("_keys",)

    def __init__(self) -> None:
        self._keys: "list[tuple]" = []

    def insert(self, key: tuple) -> None:
        """Insert a key; keys must be unique (duplicates raise)."""
        i = bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            raise ValueError(f"duplicate key {key!r}")
        self._keys.insert(i, key)

    def remove(self, key: tuple) -> None:
        """Remove a key; missing keys raise KeyError."""
        i = bisect_left(self._keys, key)
        if i >= len(self._keys) or self._keys[i] != key:
            raise KeyError(key)
        del self._keys[i]

    def iter_from_value(self, lo: float) -> Iterator[tuple]:
        """Iterate keys in order starting at the first whose value >= lo.

        Exploits tuple comparison: ``(lo,)`` sorts before every real key
        ``(lo, kind, idx)``, so bisect_left on the 1-tuple finds the first
        key at that value.
        """
        keys = self._keys
        i = bisect_left(keys, (lo,))
        while i < len(keys):
            yield keys[i]
            i += 1

    def pred_of_value(self, lo: float) -> "tuple | None":
        """The largest key whose value is < lo, or None."""
        keys = self._keys
        i = bisect_left(keys, (lo,))
        return keys[i - 1] if i > 0 else None

    def insert_with_neighbors(self, key: tuple) -> "tuple[tuple | None, tuple | None]":
        """Insert and return the (predecessor, successor) of the new key."""
        keys = self._keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            raise ValueError(f"duplicate key {key!r}")
        keys.insert(i, key)
        pred = keys[i - 1] if i > 0 else None
        succ = keys[i + 1] if i + 1 < len(keys) else None
        return pred, succ

    def remove_with_neighbors(self, key: tuple) -> "tuple[tuple | None, tuple | None]":
        """Remove and return the (predecessor, successor) the key had."""
        keys = self._keys
        i = bisect_left(keys, key)
        if i >= len(keys) or keys[i] != key:
            raise KeyError(key)
        pred = keys[i - 1] if i > 0 else None
        succ = keys[i + 1] if i + 1 < len(keys) else None
        del keys[i]
        return pred, succ

    def succ_of_key(self, key: tuple) -> "tuple | None":
        """The key immediately after ``key``, or None (also None if absent)."""
        keys = self._keys
        i = bisect_left(keys, key)
        if i >= len(keys) or keys[i] != key:
            return None
        return keys[i + 1] if i + 1 < len(keys) else None

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._keys)

    def __contains__(self, key: tuple) -> bool:
        i = bisect_left(self._keys, key)
        return i < len(self._keys) and self._keys[i] == key
