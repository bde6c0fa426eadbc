"""One bounded least-recently-used cache with one set of counters.

The pipeline reorders once and reuses the result (paper §IV), so it is a
stack of memos: compiled schedules, reorderings, pricing tables, pool
structures, the daemon's topologies and the sweep runner's evaluator.
Each is an :class:`LRU`, and each reports the same five counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, List, Optional, TypeVar

__all__ = ["LRU"]

V = TypeVar("V")


class LRU(Generic[V]):
    """At most ``capacity`` entries; storing one more evicts the least recently used.

    Values are never None: a None from :meth:`get` or :meth:`peek` means
    the key is absent.  Every method but :meth:`peek` and ``len()`` takes
    the instance's lock, so any thread may call them.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = self.misses = self.evictions = 0

    def _hit(self, key: Hashable) -> Optional[V]:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        return value

    def _store(self, key: Hashable, value: V) -> List[Hashable]:
        self._entries[key] = value
        self._entries.move_to_end(key)
        evicted = []
        while len(self._entries) > self.capacity:
            evicted.append(self._entries.popitem(last=False)[0])
        self.evictions += len(evicted)
        return evicted

    def get(self, key: Hashable) -> Optional[V]:
        """The value under ``key``, made most recent (a hit), or None (a miss)."""
        with self._lock:
            value = self._hit(key)
            if value is None:
                self.misses += 1
            return value

    def put(self, key: Hashable, value: V) -> List[Hashable]:
        """Store ``value`` as the most recent entry; returns the keys it evicted."""
        with self._lock:
            return self._store(key, value)

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> V:
        """The value under ``key``, or ``build()`` stored under it.

        ``build`` runs outside the lock, since a build may take a while.
        The miss is counted once the build returns, so a build that raises
        stores and counts nothing.
        """
        with self._lock:
            value = self._hit(key)
        if value is not None:
            return value
        value = build()
        with self._lock:
            self.misses += 1
            self._store(key, value)
        return value

    def peek(self, key: Hashable) -> Optional[V]:
        """The value under ``key`` or None; counts nothing and moves nothing.

        One dict read without the lock: the serve daemon's event loop
        calls it while its pipeline lane may be storing entries.
        """
        return self._entries.get(key)

    def values(self) -> List[V]:
        """The values, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: ``entries``, ``capacity``, ``hits``, ``misses``, ``evictions``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __len__(self) -> int:
        return len(self._entries)
