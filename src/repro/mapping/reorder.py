"""Run-time rank reordering (paper §IV).

The top of the mapping stack: given a communication-pattern name, an
initial layout and the distance matrix, produce a
:class:`~repro.collectives.correctness.RankReordering` — timing both the
mapping algorithm itself and (for the graph-based baselines) the
pattern-graph construction, since avoiding that construction is one of
the heuristics' selling points (§V, Fig. 7b).

"The whole rank reordering process happens only once at run-time": callers
cache the returned reordering per (communicator, pattern) and reuse it for
every subsequent collective call, which is what
:class:`repro.simmpi.communicator.VirtualComm` does.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from typing import Dict, Mapping, Sequence, Type

import numpy as np

from repro.collectives.correctness import RankReordering
from repro.mapping.base import Mapper, map_batch
from repro.mapping.bbmh import BBMH
from repro.mapping.bgmh import BGMH
from repro.mapping.bruckmh import BruckMH
from repro.mapping.cache import global_mapping_cache, mapping_cache_key
from repro.mapping.greedy import GreedyGraphMapper
from repro.mapping.patterns import pattern_builder
from repro.mapping.rdmh import RDMH
from repro.mapping.rmh import RMH
from repro.mapping.scotch import ScotchLikeMapper
from repro.util.lru import LRU
from repro.util.rng import RngLike
from repro.util.validation import check_layout

__all__ = [
    "HEURISTICS",
    "MAPPER_KINDS",
    "ReorderResult",
    "reorder_ranks",
    "reorder_all",
]

#: The paper's fine-tuned heuristic for each communication pattern.
HEURISTICS: Dict[str, Type[Mapper]] = {
    "recursive-doubling": RDMH,
    "ring": RMH,
    "binomial-bcast": BBMH,
    "binomial-gather": BGMH,
    "bruck": BruckMH,
}

MAPPER_KINDS = ("heuristic", "scotch", "greedy")


@dataclasses.dataclass(frozen=True)
class ReorderResult:
    """Outcome of one reordering, the permutation plus its overheads (frozen)."""

    reordering: RankReordering
    pattern: str
    mapper_name: str
    map_seconds: float
    graph_seconds: float = 0.0
    #: True when the permutation came out of the mapping cache; the
    #: recorded seconds are then those of the original computation.
    cached: bool = False

    @property
    def total_seconds(self) -> float:
        """Full mapping overhead (graph construction + mapping)."""
        return self.map_seconds + self.graph_seconds

    @property
    def mapping(self) -> np.ndarray:
        return self.reordering.mapping


def _cache_for(cache) -> "LRU[ReorderResult] | None":
    """Resolve the ``cache`` argument of :func:`reorder_ranks`."""
    if cache == "auto":
        return global_mapping_cache()
    if cache == "off" or cache is None:
        return None
    if isinstance(cache, LRU):
        return cache
    raise ValueError(f"cache must be 'auto', 'off', or an LRU, got {cache!r}")


def _fingerprint(D) -> "str | None":
    """The backend's topology fingerprint, or None (nothing to key on)."""
    fp = getattr(D, "fingerprint", None)
    if callable(fp):  # ClusterTopology-style callable fingerprints
        fp = fp()
    return fp if isinstance(fp, str) else None


def _cached(cache_obj: "LRU[ReorderResult]", key: str, L: np.ndarray) -> "ReorderResult | None":
    """The cached :class:`ReorderResult` for ``key`` if computed for layout ``L``, or None."""
    entry = cache_obj.get(key)
    if entry is None or not np.array_equal(entry.reordering.layout, L):
        return None
    return dataclasses.replace(entry, cached=True)


def _heuristic(pattern: str, mapper_kwargs: Mapping) -> Mapper:
    """The fine-tuned heuristic for ``pattern``, built with ``mapper_kwargs``."""
    try:
        mapper_cls = HEURISTICS[pattern]
    except KeyError:
        raise KeyError(f"no fine-tuned heuristic for pattern {pattern!r}")
    return mapper_cls(**mapper_kwargs)


def reorder_ranks(
    pattern: str,
    layout: Sequence[int],
    D: np.ndarray,
    kind: str = "heuristic",
    rng: RngLike = 0,
    cache="auto",
    **mapper_kwargs,
) -> ReorderResult:
    """Compute a rank reordering for ``pattern``.

    Parameters
    ----------
    pattern:
        One of :data:`HEURISTICS`'s keys ("recursive-doubling", "ring",
        "binomial-bcast", "binomial-gather", "bruck").
    layout:
        Initial layout ``L[old_rank] = core``.
    D:
        Core-by-core distances: the dense matrix, or an
        :class:`~repro.topology.implicit.ImplicitDistances` backend.
    kind:
        ``"heuristic"`` — the paper's fine-tuned mapper for the pattern;
        ``"scotch"`` — the Scotch-like recursive-bipartitioning baseline;
        ``"greedy"`` — the Hoefler-Snir-style greedy baseline.
    cache:
        ``"auto"`` (default) — consult the process-global
        :func:`~repro.mapping.cache.global_mapping_cache` whenever the
        result is content-addressable: ``D`` carries a topology
        fingerprint and ``rng`` is a plain integer seed.  ``"off"``
        disables caching; an :class:`~repro.util.lru.LRU` instance is
        used as the cache.
    mapper_kwargs:
        Forwarded to the mapper constructor (e.g. ``tie_break="first"``,
        ``traversal=...``, ``update_after=...``).

    An unknown pattern, a keyword the mapper does not take or a layout
    that is not a non-empty 1-D integer array (floats and bools are
    refused, not truncated) raises before the cache is consulted, so a
    refused call counts no miss.
    """
    if kind not in MAPPER_KINDS:
        raise ValueError(f"kind must be one of {MAPPER_KINDS}, got {kind!r}")
    L = check_layout(layout)
    p = L.size

    # Resolve the mapper before the lookup; a graph mapper's pattern graph
    # is built only on a miss (its construction is measured overhead).
    if kind == "heuristic":
        mapper: "Mapper | None" = _heuristic(pattern, mapper_kwargs)
    else:
        builder = pattern_builder(pattern)
        graph_mapper = ScotchLikeMapper if kind == "scotch" else GreedyGraphMapper
        inspect.signature(graph_mapper).bind(None, **mapper_kwargs)
        mapper = None

    cache_obj = _cache_for(cache)
    key = None
    fp = _fingerprint(D) if cache_obj is not None else None
    if fp is not None and isinstance(rng, (int, np.integer)):
        key = mapping_cache_key(fp, pattern, kind, L, int(rng), mapper_kwargs)
        hit = _cached(cache_obj, key, L)
        if hit is not None:
            return hit

    graph_seconds = 0.0
    if mapper is None:
        # General-purpose mappers must build the process-topology graph
        # first — that construction is part of their measured overhead.
        t0 = time.perf_counter()
        graph = builder(p)
        graph_seconds = time.perf_counter() - t0
        mapper = graph_mapper(graph, **mapper_kwargs)

    t0 = time.perf_counter()
    M = mapper.map(L, D, rng=rng)
    map_seconds = time.perf_counter() - t0

    res = ReorderResult(
        reordering=RankReordering(layout=L, mapping=M),
        pattern=pattern,
        mapper_name=mapper.name,
        map_seconds=map_seconds,
        graph_seconds=graph_seconds,
    )
    if key is not None:
        cache_obj.put(key, res)
    return res


def reorder_all(
    layout: Sequence[int],
    D,
    patterns: "Sequence[str] | None" = None,
    rng: RngLike = 0,
    cache="auto",
    **mapper_kwargs,
) -> Dict[str, ReorderResult]:
    """Reorder one topology under every fine-tuned heuristic in one pass.

    Batched equivalent of one :func:`reorder_ranks` call per pattern
    with ``kind="heuristic"`` — same results, same cache entries, same
    rng-stream consumption (patterns are processed in the given order,
    so a shared live ``Generator`` draws exactly as the sequential calls
    would) — but the per-topology setup is paid once instead of once per
    heuristic: the backend fingerprint and layout serialisation for the
    cache keys, and (via :func:`repro.mapping.base.map_batch`) the
    pool's group structure.

    This is the entry point the evaluator, the sweep cells and the
    fault-recovery comparison use whenever they need several patterns'
    reorderings of the same layout.

    Parameters
    ----------
    layout / D / cache / mapper_kwargs:
        As in :func:`reorder_ranks`.
    rng:
        One :data:`~repro.util.rng.RngLike` shared by every pattern — an
        integer seed (each heuristic then draws from its own fresh
        stream, exactly like sequential calls with the same seed) or a
        live Generator (shared, consumed in pattern order; bypasses the
        cache) — or a ``{pattern: RngLike}`` mapping for callers whose
        seeds are pattern-derived (e.g. fault recovery).
    patterns:
        The patterns to map, default: every key of :data:`HEURISTICS`.

    Returns
    -------
    dict
        ``{pattern: ReorderResult}`` in ``patterns`` order.
    """
    if patterns is None:
        patterns = tuple(HEURISTICS)
    unknown = [pt for pt in patterns if pt not in HEURISTICS]
    if unknown:
        raise KeyError(f"no fine-tuned heuristic for pattern(s) {unknown!r}")
    L = check_layout(layout)  # before any lookup: a refused layout counts no miss
    if isinstance(rng, Mapping):
        missing_rng = [pt for pt in patterns if pt not in rng]
        if missing_rng:
            raise KeyError(f"rng mapping lacks entries for pattern(s) {missing_rng!r}")
        rng_of = dict(rng)
    else:
        rng_of = {pt: rng for pt in patterns}
    # Built before any lookup, so a refused keyword counts no miss.
    mappers = {pt: _heuristic(pt, mapper_kwargs) for pt in patterns}

    # --- cache lookups (fingerprint + layout serialised once) ---------
    cache_obj = _cache_for(cache)
    keys: Dict[str, str] = {}
    results: Dict[str, ReorderResult] = {}
    fp = _fingerprint(D) if cache_obj is not None else None
    if fp is not None:
        for pt in patterns:
            if not isinstance(rng_of[pt], (int, np.integer)):
                continue  # live Generators bypass the cache
            keys[pt] = mapping_cache_key(fp, pt, "heuristic", L, int(rng_of[pt]), mapper_kwargs)
            hit = _cached(cache_obj, keys[pt], L)
            if hit is not None:
                results[pt] = hit

    # --- batched mapping of the misses --------------------------------
    misses = [pt for pt in patterns if pt not in results]
    if misses:
        seconds: list = []
        mappings = map_batch(
            [mappers[pt] for pt in misses], L, D, [rng_of[pt] for pt in misses],
            seconds_out=seconds,
        )
        for pt, M, secs in zip(misses, mappings, seconds):
            results[pt] = ReorderResult(
                reordering=RankReordering(layout=L, mapping=M),
                pattern=pt,
                mapper_name=mappers[pt].name,
                map_seconds=secs,
            )
            if pt in keys:
                cache_obj.put(keys[pt], results[pt])

    return {pt: results[pt] for pt in patterns}
