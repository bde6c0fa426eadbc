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

import functools
import hashlib
from typing import Any, Dict, Sequence

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
from repro.collectives.scatter_allgather import BinomialScatter, ScatterAllgatherBroadcast
from repro.collectives.schedule import CollectiveAlgorithm, Schedule
from repro.util.bits import is_power_of_two
from repro.util.lru import LRU

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


#: Unregistered algorithms the memo serves by name: each instance name
#: encodes the one constructor argument.  They have no pattern of their
#: own, so they stay out of :func:`registered_algorithm_names`.
_NAMED_VARIANTS = {
    f"scatter-allgather-bcast[{kind}]": functools.partial(ScatterAllgatherBroadcast, kind)
    for kind in ("rd", "ring")
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

_MEMO: "LRU[Schedule]" = LRU(SCHEDULE_MEMO_SIZE)


def compiled_schedule(name: str, p: int) -> Schedule:
    """``make_algorithm(name).schedule(p)``, built once per process.

    Keyed on ``(name, p)``, so never built from a caller's instance: a
    registered name does not encode constructor arguments.  The
    scatter-allgather broadcasts, whose names do, are served too.
    """
    p = int(p)
    build = _NAMED_VARIANTS.get(name, functools.partial(make_algorithm, name))
    return _MEMO.get_or_build((name, p), lambda: build().schedule(p))


def hierarchical_schedule(
    ranks: np.ndarray, sizes: Sequence[int], leader_alg: str, intra: str
) -> Schedule:
    """``HierarchicalAllgather.from_partition(...)``'s schedule, built once per process.

    Keyed on the partition's content: the group sizes, ``leader_alg`` and
    ``intra``, plus the rank array's SHA-1 unless the ranks are
    ``0 .. p - 1`` in order (the sizes then fix the partition).
    """
    ranks = np.ascontiguousarray(ranks, dtype=np.int64)
    sizes = tuple(np.asarray(sizes, dtype=np.int64).tolist())

    def build() -> Schedule:
        alg = HierarchicalAllgather.from_partition(ranks, sizes, leader_alg, intra)
        return alg.schedule(alg.p)

    key: tuple = (sizes, leader_alg, intra)
    if not np.array_equal(ranks, np.arange(sum(sizes))):
        key = (hashlib.sha1(ranks).digest(),) + key
    return _MEMO.get_or_build(key, build)


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
