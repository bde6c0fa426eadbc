"""MVAPICH-like algorithm selection (paper §II, §VI-A1).

"In practice, MPI libraries exploit a combination of such algorithms and
choose one based on various parameters such as message and communicator
size."  For allgather, MVAPICH's policy — which produces the Fig. 3/4
crossover around the 1-2 KiB per-rank message size — is: recursive
doubling for small messages on power-of-two communicators, ring for large
messages, Bruck as the small-message fallback for non-power-of-two
communicator sizes.

Every algorithm also declares which mapping-heuristic *pattern* matches
it, which is how :func:`repro.mapping.reorder.reorder_ranks` dispatches.

A compiled schedule depends only on a registered name and ``p``, or on
a node partition, so one bounded memo per process serves every caller.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Sequence

import numpy as np

from repro.collectives.allgather_bruck import BruckAllgather
from repro.collectives.allgather_rd import RecursiveDoublingAllgather
from repro.collectives.allgather_rd_nonpow2 import FoldedRecursiveDoublingAllgather
from repro.collectives.allreduce import RabenseifnerAllreduce, RecursiveDoublingAllreduce
from repro.collectives.allgather_ring import RingAllgather
from repro.collectives.bcast_binomial import BinomialBroadcast
from repro.collectives.gather_binomial import BinomialGather
from repro.collectives.hierarchical import HierarchicalAllgather
from repro.collectives.reduce import BinomialReduce
from repro.collectives.scatter_allgather import BinomialScatter
from repro.collectives.schedule import CollectiveAlgorithm, Schedule
from repro.util.bits import is_power_of_two

__all__ = [
    "DEFAULT_RD_THRESHOLD_BYTES",
    "SCHEDULE_MEMO_SIZE",
    "compiled_schedule",
    "hierarchical_schedule",
    "schedule_memo_stats",
    "hierarchical_leader_alg",
    "select_allgather",
    "select_hierarchical_allgather",
    "pattern_of",
    "make_algorithm",
    "registered_algorithm_names",
]

#: Per-rank message size (bytes) below which recursive doubling is used.
DEFAULT_RD_THRESHOLD_BYTES = 2048

#: Maps an algorithm name to the communication-pattern key the mapping
#: heuristics are registered under.
_PATTERNS = {
    "recursive-doubling": "recursive-doubling",
    "ring": "ring",
    "bruck": "bruck",
    "binomial-bcast": "binomial-bcast",
    "binomial-gather": "binomial-gather",
    "binomial-scatter": "binomial-gather",  # same tree, reversed edges
    "recursive-doubling-folded": "recursive-doubling",
    "binomial-reduce": "binomial-bcast",  # fixed-size tree messages
    "allreduce-rd": "recursive-doubling",
    "allreduce-rabenseifner": "recursive-doubling",
}


#: Constructors for every registered algorithm, keyed by its ``name``.
#: All take no arguments (roots default to 0), so ``make_algorithm`` can
#: instantiate any registered pattern for verification sweeps and tests.
_ALGORITHM_FACTORIES = {
    "recursive-doubling": RecursiveDoublingAllgather,
    "ring": RingAllgather,
    "bruck": BruckAllgather,
    "recursive-doubling-folded": FoldedRecursiveDoublingAllgather,
    "binomial-bcast": BinomialBroadcast,
    "binomial-gather": BinomialGather,
    "binomial-scatter": BinomialScatter,
    "binomial-reduce": BinomialReduce,
    "allreduce-rd": RecursiveDoublingAllreduce,
    "allreduce-rabenseifner": RabenseifnerAllreduce,
}


def registered_algorithm_names() -> list:
    """Names of every registered (pattern-dispatchable) algorithm."""
    return sorted(_ALGORITHM_FACTORIES)


def make_algorithm(name: str) -> CollectiveAlgorithm:
    """Instantiate a registered algorithm by its ``name``."""
    try:
        factory = _ALGORITHM_FACTORIES[name]
    except KeyError:
        known = ", ".join(registered_algorithm_names())
        raise KeyError(f"unknown algorithm {name!r}; registered: {known}")
    return factory()


#: Compiled schedules the process keeps (least recently used evicted).
SCHEDULE_MEMO_SIZE = 64


class _ScheduleMemo:
    """Bounded LRU of compiled schedules with hit/miss/eviction counters."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._memo: "OrderedDict[Hashable, Schedule]" = OrderedDict()
        self._lock = threading.Lock()  # the serve lane and callers' threads share it
        self.hits = self.misses = self.evictions = 0

    def get(self, key: Hashable, build: Callable[[], Schedule]) -> Schedule:
        with self._lock:
            sched = self._memo.get(key)
            if sched is not None:
                self._memo.move_to_end(key)
                self.hits += 1
                return sched
        sched = build()  # outside the lock: a build may take a while
        with self._lock:
            self.misses += 1
            self._memo[key] = sched
            while len(self._memo) > self.capacity:
                self._memo.popitem(last=False)
                self.evictions += 1
        return sched

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._memo),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


_MEMO = _ScheduleMemo(SCHEDULE_MEMO_SIZE)


def compiled_schedule(name: str, p: int) -> Schedule:
    """``make_algorithm(name).schedule(p)``, built once per process.

    Keyed on ``(name, p)``, so never built from a caller's instance: a
    name does not encode constructor arguments.
    """
    p = int(p)
    return _MEMO.get((name, p), lambda: make_algorithm(name).schedule(p))


def hierarchical_schedule(
    ranks: np.ndarray, sizes: Sequence[int], leader_alg: str, intra: str
) -> Schedule:
    """``HierarchicalAllgather.from_partition(...)``'s schedule, built once per process.

    Keyed on the partition's content: the rank array's SHA-1, the group
    sizes, ``leader_alg`` and ``intra``.
    """
    ranks = np.ascontiguousarray(ranks, dtype=np.int64)
    sizes = tuple(np.asarray(sizes, dtype=np.int64).tolist())

    def build() -> Schedule:
        alg = HierarchicalAllgather.from_partition(ranks, sizes, leader_alg, intra)
        return alg.schedule(alg.p)

    return _MEMO.get((hashlib.sha1(ranks).digest(), sizes, leader_alg, intra), build)


def schedule_memo_stats() -> Dict[str, Any]:
    """Counter snapshot of the process-wide schedule memo."""
    return _MEMO.stats()


def pattern_of(algorithm: CollectiveAlgorithm) -> str:
    """Mapping-heuristic pattern key for an algorithm."""
    base = algorithm.name.split("[")[0]
    try:
        return _PATTERNS[base]
    except KeyError:
        raise KeyError(f"no mapping pattern registered for algorithm {algorithm.name!r}")


def select_allgather(
    p: int,
    block_bytes: float,
    rd_threshold: float = DEFAULT_RD_THRESHOLD_BYTES,
) -> CollectiveAlgorithm:
    """Pick the non-hierarchical allgather MVAPICH-style."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if block_bytes < rd_threshold:
        if is_power_of_two(p):
            return RecursiveDoublingAllgather()
        return BruckAllgather()
    return RingAllgather()


def hierarchical_leader_alg(
    n_groups: int, block_bytes: float, rd_threshold: float = DEFAULT_RD_THRESHOLD_BYTES
) -> str:
    """The leader exchange: RD for small messages on a power-of-two node
    count, ring otherwise."""
    return "rd" if block_bytes < rd_threshold and is_power_of_two(n_groups) else "ring"


def select_hierarchical_allgather(
    groups: Sequence[Sequence[int]],
    block_bytes: float,
    intra: str = "binomial",
    rd_threshold: float = DEFAULT_RD_THRESHOLD_BYTES,
) -> HierarchicalAllgather:
    """Pick the hierarchical allgather (:func:`hierarchical_leader_alg`)."""
    leader_alg = hierarchical_leader_alg(len(groups), block_bytes, rd_threshold)
    return HierarchicalAllgather(groups=groups, leader_alg=leader_alg, intra=intra)
