"""Warm-state request execution for the reordering daemon.

:class:`ReorderService` owns the :class:`~repro.serve.registry.
TopologyRegistry` and turns decoded request payloads into JSON-ready
result dicts.  It is deliberately synchronous and single-threaded by
contract: the asyncio server funnels every pipeline-touching op through
one executor lane.  The caches underneath are :class:`~repro.util.lru.
LRU` instances, each with its own lock, so the event loop's warm path
may read them while the lane stores entries.

The service is also the daemon's measurement point: it counts requests,
warm inline answers, solo reorders and cache traffic, which the
``stats`` op surfaces.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.collectives.registry import schedule_memo_stats
from repro.mapping.cache import mapping_cache_key
from repro.mapping.initial import INITIAL_LAYOUTS, make_layout
from repro.mapping.reorder import (
    HEURISTICS,
    MAPPER_KINDS,
    ReorderResult,
    reorder_ranks,
)
from repro.serve.protocol import ERROR_BAD_REQUEST, PROTOCOL_VERSION, ProtocolError
from repro.serve.registry import (
    DEFAULT_TOPOLOGY_CAP,
    TopologyEntry,
    TopologyRegistry,
    check_layout_array,
)

__all__ = ["ReorderService"]

#: The largest finite float: a JSON number above it (or NaN) is no size.
_MAX_FLOAT = sys.float_info.max


def _require_int(payload: Mapping[str, Any], key: str, default: Optional[int] = None) -> int:
    value = payload.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(ERROR_BAD_REQUEST, f"{key!r} must be an integer, got {value!r}")
    return value


def _mapper_options(payload: Mapping[str, Any]) -> Dict[str, Any]:
    options = payload.get("options", {})
    if not isinstance(options, Mapping):
        raise ProtocolError(ERROR_BAD_REQUEST, "'options' must be a JSON object")
    return dict(options)


def _reorder_answer(res: ReorderResult, cached: bool) -> Dict[str, Any]:
    """The ``reorder`` op's result for one :class:`ReorderResult`."""
    return {
        "pattern": res.pattern,
        "mapper_name": res.mapper_name,
        "mapping": res.mapping.tolist(),
        "cached": cached,
        "map_seconds": float(res.map_seconds),
        "graph_seconds": float(res.graph_seconds),
    }


class ReorderService:
    """Executes decoded requests against the warm topology registry."""

    def __init__(self, topology_cap: int = DEFAULT_TOPOLOGY_CAP) -> None:
        self.registry = TopologyRegistry(cap=topology_cap)
        self.started_monotonic = time.monotonic()
        # Traffic counters (surfaced through the stats op).
        self.requests: Dict[str, int] = {}
        self.errors = 0
        self.reorder_solo = 0       # solo reorder_ranks invocations
        self.price_evaluations = 0  # evaluate_sizes invocations
        self.patterns_computed = 0  # reorder results NOT served from cache
        self.patterns_cached = 0    # reorder results served from cache (lane)
        self.warm_inline = 0        # reorders answered inline on the event loop

    # ------------------------------------------------------------------
    # op: register_topology
    # ------------------------------------------------------------------
    def register_topology(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        spec = payload.get("spec")
        if spec is None:
            raise ProtocolError(ERROR_BAD_REQUEST, "register_topology needs a 'spec' object")
        entry, evicted = self.registry.register(spec)
        return {
            "fingerprint": entry.fingerprint,
            "n_nodes": entry.cluster.n_nodes,
            "n_cores": entry.cluster.n_cores,
            "cores_per_node": entry.cluster.cores_per_node,
            "evicted": evicted,
        }

    # ------------------------------------------------------------------
    # op: reorder
    # ------------------------------------------------------------------
    def _resolve_layout(
        self, entry: TopologyEntry, payload: Mapping[str, Any]
    ) -> np.ndarray:
        layout = payload.get("layout")
        if isinstance(layout, str):
            if layout not in INITIAL_LAYOUTS:
                raise ProtocolError(
                    ERROR_BAD_REQUEST,
                    f"unknown layout {layout!r} (named layouts: "
                    f"{', '.join(sorted(INITIAL_LAYOUTS))})",
                )
            p = _require_int(payload, "p", entry.cluster.n_cores)
            if not 0 < p <= entry.cluster.n_cores:
                raise ProtocolError(
                    ERROR_BAD_REQUEST,
                    f"p must be in 1..{entry.cluster.n_cores}, got {p}",
                )
            return make_layout(layout, entry.cluster, p)
        if isinstance(layout, (list, tuple)):
            return check_layout_array(layout, entry.cluster.n_cores)
        raise ProtocolError(
            ERROR_BAD_REQUEST, "'layout' must be a layout name or a list of core ids"
        )

    def reorder(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """One (fingerprint, pattern, layout, seed, kind) reorder query."""
        entry = self.registry.get(payload.get("fingerprint"))
        kind = payload.get("kind", "heuristic")
        if kind not in MAPPER_KINDS:
            raise ProtocolError(
                ERROR_BAD_REQUEST, f"kind must be one of {MAPPER_KINDS}, got {kind!r}"
            )
        pattern = payload.get("pattern")
        if not isinstance(pattern, str):
            raise ProtocolError(ERROR_BAD_REQUEST, "'pattern' must be a string")
        if kind == "heuristic" and pattern not in HEURISTICS:
            raise ProtocolError(
                ERROR_BAD_REQUEST,
                f"no fine-tuned heuristic for pattern {pattern!r} "
                f"(known: {', '.join(sorted(HEURISTICS))})",
            )
        L = self._resolve_layout(entry, payload)
        seed = _require_int(payload, "seed", 0)
        options = _mapper_options(payload)
        try:
            res = reorder_ranks(
                pattern,
                L,
                entry.distances,
                kind=kind,
                rng=seed,
                cache=self.registry.mapping_cache,
                **options,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(ERROR_BAD_REQUEST, f"reorder failed: {exc}")
        self.reorder_solo += 1
        if res.cached:
            self.patterns_cached += 1
        else:
            self.patterns_computed += 1
        return _reorder_answer(res, bool(res.cached))

    def reorder_warm(self, payload: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
        """Answer a reorder straight from the mapping cache, or None.

        The server calls this on the **event loop thread** before paying
        the executor hop: a warm hit is one locked dict lookup plus JSON
        plumbing, so serving it inline roughly halves warm latency.  Up
        to the hit it does pure lookups only (no LRU movement, no
        counters) and it never raises, so it is safe while the pipeline
        lane mutates the caches.  Any miss — cold key, unknown topology,
        malformed payload — returns None and the request takes the lane,
        which counts its one cache miss or reports its real error.
        """
        try:
            entry = self.registry.peek(payload.get("fingerprint"))
            if entry is None:
                return None
            seed = payload.get("seed", 0)
            if not isinstance(seed, int) or isinstance(seed, bool):
                return None
            pattern = payload.get("pattern")
            if not isinstance(pattern, str):
                return None
            kind = payload.get("kind", "heuristic")
            if kind not in MAPPER_KINDS:
                return None
            L = self._resolve_layout(entry, payload)
            key = mapping_cache_key(
                entry.fingerprint, pattern, kind, L, seed, _mapper_options(payload)
            )
        except (ProtocolError, TypeError, ValueError):
            return None
        cache = self.registry.mapping_cache
        # peek first: get counts a miss, and the lane's reorder_ranks
        # counts the same cold key's miss again.
        cached = cache.get(key) if cache.peek(key) is not None else None
        # None is rare: evicted between peek and get.
        if cached is None or not np.array_equal(cached.reordering.layout, L):
            return None
        self.warm_inline += 1
        return _reorder_answer(cached, True)

    def reorder_batch(
        self, payloads: Sequence[Mapping[str, Any]]
    ) -> List[Dict[str, Any]]:
        """:meth:`reorder` of each payload, in order.

        The daemon never calls this; ``perf/spans.py`` wraps it by name.
        """
        return [self.reorder(p) for p in payloads]

    # ------------------------------------------------------------------
    # op: price
    # ------------------------------------------------------------------
    def price(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Price one (algorithm, mapping) pair over a size vector.

        The mapping comes either as an explicit ``mapping`` list or as a
        ``layout`` (name or list) priced as-is — the latter is the
        "default placement" baseline every improvement is measured
        against.  Pricing tables stay resident in the topology entry's
        engine LRU, so repeat traffic skips route construction entirely.
        """
        entry = self.registry.get(payload.get("fingerprint"))
        algorithm = payload.get("algorithm")
        if not isinstance(algorithm, str):
            raise ProtocolError(ERROR_BAD_REQUEST, "'algorithm' must be a string")
        mapping = payload.get("mapping")
        if mapping is not None:
            M = check_layout_array(mapping, entry.cluster.n_cores)
        else:
            M = self._resolve_layout(entry, payload)
        sizes = payload.get("sizes")
        if not isinstance(sizes, (list, tuple)) or not sizes:
            raise ProtocolError(ERROR_BAD_REQUEST, "'sizes' must be a non-empty list")
        # json parses NaN, Infinity and integers past the float range;
        # none of them is a size.
        for s in sizes:
            if isinstance(s, bool) or not isinstance(s, (int, float)) or not 0 < s <= _MAX_FLOAT:
                raise ProtocolError(
                    ERROR_BAD_REQUEST, f"sizes must be positive finite numbers, got {s!r}"
                )
        extra = payload.get("extra_copy_bytes", 0.0)
        if (
            isinstance(extra, bool)
            or not isinstance(extra, (int, float))
            or not 0 <= extra <= _MAX_FLOAT
        ):
            raise ProtocolError(
                ERROR_BAD_REQUEST, f"'extra_copy_bytes' must be finite and >= 0, got {extra!r}"
            )
        schedule = entry.schedule_for(algorithm, M.size)
        try:
            batch = entry.engine.evaluate_sizes(
                schedule, M, [float(s) for s in sizes], extra_copy_bytes=float(extra)
            )
        except ValueError as exc:
            raise ProtocolError(ERROR_BAD_REQUEST, f"price failed: {exc}")
        self.price_evaluations += 1
        return {
            "schedule_name": batch.schedule_name,
            "algorithm": algorithm,
            "p": int(M.size),
            "sizes": [float(s) for s in batch.sizes],
            "total_seconds": [float(t) for t in batch.total_seconds],
            "local_copy_seconds": [float(t) for t in batch.local_copy_seconds],
        }

    # ------------------------------------------------------------------
    # ops: stats / health
    # ------------------------------------------------------------------
    def stats(self, extra: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Counter snapshot: server traffic + registry + cache state."""
        cache = self.registry.mapping_cache
        out: Dict[str, Any] = {
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "requests": dict(self.requests),
            "errors": self.errors,
            # Always 0: the daemon neither coalesces nor micro-batches, but
            # perf/workloads.py (serve-mix-p1024) still reads these keys.
            "coalesced": 0,
            "batched": 0,
            "reorder_batches": 0,
            "reorder_solo": self.reorder_solo,
            "price_evaluations": self.price_evaluations,
            "patterns_computed": self.patterns_computed,
            "patterns_cached": self.patterns_cached,
            "warm_inline": self.warm_inline,
            "registry": self.registry.describe(),
            "mapping_cache": cache.stats(),
            "schedules": schedule_memo_stats(),
        }
        if extra:
            out.update(extra)
        return out

    def health(self, extra: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "topologies": len(self.registry),
        }
        if extra:
            out.update(extra)
        return out

    def count_request(self, op: str) -> None:
        self.requests[op] = self.requests.get(op, 0) + 1
