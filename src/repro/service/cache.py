"""A minimal thread-safe LRU cache with hit/miss counters and purging.

``HeatMapService`` uses two of these: one over built results (keyed by
fingerprint) and one over rendered raster tiles (keyed by
``(handle, z, tx, ty, tile_size)``).  ``purge`` exists so invalidating one
dynamic heat map drops only *its* tiles, leaving other tenants' entries
warm.

Every public method holds the cache's own lock, so the async serving front
end can fan probe batches and tile renders across executor threads without
corrupting the recency order; compound check-then-act sequences (refresh a
dynamic entry, then admit its tiles) are serialized one level up, in
``HeatMapService``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Bounded mapping evicting the least-recently-used entry.

    Attributes:
        hits, misses, evictions: monotone counters for observability.

    Individual operations are atomic (an internal lock guards the order
    book and the counters); callers needing multi-operation atomicity must
    bring their own lock.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: Hashable, default=None):
        """The cached value (refreshing recency), or ``default``."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value) -> "list[tuple[Hashable, object]]":
        """Insert/refresh an entry; returns any evicted (key, value) pairs."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            evicted = []
            while len(self._data) > self.maxsize:
                evicted.append(self._data.popitem(last=False))
                self.evictions += 1
            return evicted

    def pop(self, key: Hashable, default=None):
        """Remove and return an entry without counting a hit or miss."""
        with self._lock:
            return self._data.pop(key, default)

    def purge(self, predicate: "Callable[[Hashable], bool]") -> int:
        """Drop every entry whose key satisfies ``predicate``."""
        with self._lock:
            doomed = [k for k in self._data if predicate(k)]
            for k in doomed:
                del self._data[k]
            return len(doomed)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._data.clear()

    def keys(self):
        """Current keys, least- to most-recently used."""
        with self._lock:
            return list(self._data.keys())
