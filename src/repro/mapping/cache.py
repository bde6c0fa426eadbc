"""Content-addressed mapping cache: one bounded in-memory LRU.

"The whole rank reordering process happens only once at run-time" — but
sweeps, fault-recovery drills and repeated evaluator runs recompute the
same reordering thousands of times.  Every mapping this repo produces is
a pure function of

* the **topology fingerprint** (structural parameters + link weights,
  :meth:`~repro.topology.cluster.ClusterTopology.fingerprint`),
* the **initial layout** (the exact core array),
* the **mapper identity** (pattern, kind, constructor kwargs), and
* the **integer rng seed**,

so a sha256 over those fields addresses the result exactly.  The cache
keeps each :class:`~repro.mapping.reorder.ReorderResult` under that key
in a bounded in-memory LRU, which lives as
long as the process that reorders — the paper reorders once at run-time,
in the job that uses the result.  Generator rng objects are left out of
the key: only plain integer seeds are reproducible content, so
:func:`repro.mapping.reorder.reorder_ranks` bypasses the cache entirely
for live generators.

Entries are frozen values whose :class:`~repro.collectives.correctness.
RankReordering` was validated once, when it was built, so a hit returns
the kept object with no validation, sort or copy.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

import numpy as np

if TYPE_CHECKING:  # the reorder module imports this one
    from repro.mapping.reorder import ReorderResult

__all__ = [
    "MappingCache",
    "global_mapping_cache",
    "mapping_cache_key",
]


def _normalise(value: Any) -> Any:
    """JSON-stable view of a mapper kwarg value."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_normalise(v) for v in value]
    return value


def mapping_cache_key(
    fingerprint: str,
    pattern: str,
    kind: str,
    layout: np.ndarray,
    seed: int,
    mapper_kwargs: Optional[Mapping[str, Any]] = None,
) -> str:
    """Content address of one mapping computation."""
    kwargs = {k: _normalise(v) for k, v in sorted((mapper_kwargs or {}).items())}
    payload = json.dumps(
        {
            "fingerprint": fingerprint,
            "pattern": pattern,
            "kind": kind,
            "seed": int(seed),
            "kwargs": kwargs,
        },
        sort_keys=True,
    ).encode()
    h = hashlib.sha256(payload)
    h.update(np.ascontiguousarray(np.asarray(layout, dtype=np.int64)).tobytes())
    return h.hexdigest()


class MappingCache:
    """Bounded in-memory LRU of reordering results.

    Parameters
    ----------
    max_memory_entries:
        LRU bound: admitting one more entry evicts the least recently
        used one.
    """

    def __init__(self, max_memory_entries: int = 256) -> None:
        if max_memory_entries < 1:
            raise ValueError(f"max_memory_entries must be >= 1, got {max_memory_entries}")
        self.max_memory_entries = max_memory_entries
        self._memory: "OrderedDict[str, ReorderResult]" = OrderedDict()
        # Guards _memory: the serve daemon answers warm hits from its event
        # loop thread while the pipeline lane admits entries.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(self, key: str) -> "Optional[ReorderResult]":
        """The stored result for ``key`` (the object itself), or None."""
        with self._lock:
            entry = self._memory.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._memory.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, entry: "ReorderResult") -> None:
        """Store ``entry`` (evicting the least recently used past the bound)."""
        with self._lock:
            self._memory[key] = entry
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)
                self.evictions += 1

    def peek(self, key: str) -> bool:
        """True iff ``key`` is resident.

        No counter updates, no LRU movement — this is the
        serve daemon's warm-test (safe to call from a thread other than
        the one mutating the cache, since it is one dict lookup).
        """
        return key in self._memory

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot (what the daemon's ``stats`` op reports)."""
        return {
            "entries": len(self._memory),
            "max_memory_entries": self.max_memory_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MappingCache(entries={len(self._memory)}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )


_GLOBAL_CACHE = MappingCache()


def global_mapping_cache() -> MappingCache:
    """The process-wide cache (one instance for the life of the process)."""
    return _GLOBAL_CACHE
