"""Span recording from outside the program: timing wrappers, self time, Chrome trace.

Nothing under ``src/`` knows it is being traced.  :func:`install` wraps the
public entry points of each layer the benchmark names and returns an undo
callable:

* module-level functions are rebound by identity in every loaded
  ``repro.*`` module that holds them (``from x import f`` copies included);
* methods are patched on the class that defines them.

A span is ``[id, name, start_ns, end_ns, parent_id, op_id, thread, args]``
on the process-wide ``time.perf_counter_ns`` clock, which on Linux reads
``CLOCK_MONOTONIC`` and so is shared by every process on the machine —
spans from spawned fabric workers line up with their parent's.  Spans stay
in memory until :func:`chrome_trace` writes them out.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ID, NAME, START, END, PARENT, OP, THREAD, ARGS = range(8)


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: op id for threads that never called :meth:`set_op` (fabric
        #: workers run one op each; server threads stay ``None``).
        self.default_op: Optional[int] = None
        #: every mapping-cache object ``global_mapping_cache`` handed out,
        #: with its counters when first seen (earlier traffic is not ours).
        self.caches: Dict[int, Tuple[object, Dict[str, int]]] = {}
        #: cache traffic reported by other processes (:meth:`absorb`).
        self.remote_cache = {"hits": 0, "misses": 0, "evictions": 0}
        #: pid -> label of every process whose spans this tracer holds.
        self.process_names: Dict[int, str] = {}

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op_id: Optional[int]) -> None:
        """Tag spans opened by the calling thread with ``op_id``."""
        self._local.op = op_id

    def begin(self, name: str, args: Optional[dict] = None) -> list:
        stack = self._stack()
        span = [
            f"{self.pid}-{next(self._ids)}",
            name,
            time.perf_counter_ns(),
            0,
            stack[-1][ID] if stack else None,
            getattr(self._local, "op", self.default_op),
            threading.get_ident(),
            args or {},
        ]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def current(self) -> Optional[str]:
        """Id of the innermost span the calling thread has open."""
        stack = self._stack()
        return stack[-1][ID] if stack else None

    def add(self, name: str, start: int, end: int, parent=None, op=None, args=None) -> None:
        """Record a span measured elsewhere (e.g. a worker's spawn latency)."""
        self.spans.append(
            [f"{self.pid}-{next(self._ids)}", name, start, end, parent, op,
             threading.get_ident(), args or {}]
        )

    def see_cache(self, cache) -> None:
        if id(cache) not in self.caches:
            self.caches[id(cache)] = (cache, _cache_counts(cache))

    def cache_deltas(self) -> Dict[str, int]:
        """Mapping-cache traffic since each cache was first seen, all processes."""
        total = dict(self.remote_cache)
        for cache, base in self.caches.values():
            now = _cache_counts(cache)
            for k in total:
                total[k] += now[k] - base[k]
        return total

    def export(self) -> dict:
        """JSON-ready record of this process's spans and counters."""
        return {"pid": self.pid, "spans": self.spans, "cache": self.cache_deltas()}

    def absorb(self, exported: dict, label: str, parent: Optional[str] = None) -> None:
        """Merge another process's :meth:`export`; its root spans hang off ``parent``."""
        self.process_names[exported["pid"]] = label
        for s in exported["spans"]:
            if s[PARENT] is None:
                s[PARENT] = parent
            self.spans.append(s)
        for k, v in exported["cache"].items():
            self.remote_cache[k] += v


def _cache_counts(cache) -> Dict[str, int]:
    stats = cache.stats()
    return {k: int(stats[k]) for k in ("hits", "misses", "evictions")}


# ----------------------------------------------------------------------
# installing the wrappers
# ----------------------------------------------------------------------
def _timed(tracer: Tracer, fn: Callable, name, args_of=None) -> Callable:
    """Wrap ``fn`` in a span; ``name`` may be a callable of the call args."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_name = name(args, kwargs) if callable(name) else name
        span = tracer.begin(span_name, args_of(args, kwargs) if args_of else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span)

    return traced


def _reorder_ranks_name(args, kwargs) -> str:
    kind = kwargs.get("kind", args[3] if len(args) > 3 else "heuristic")
    return "mapping.scotch" if kind == "scotch" else "mapping.reorder_ranks"


def serve_request_key(op: str, payload: dict) -> str:
    """Cheap identity of one serve request, equal on the client and server side."""
    if op == "reorder":
        return f"reorder|{payload.get('pattern')}|{payload.get('layout')}|{payload.get('seed', 0)}"
    if op == "price":
        mapping = payload.get("mapping")
        digest = hash(tuple(mapping)) if isinstance(mapping, list) else None
        return f"price|{payload.get('algorithm')}|{digest}"
    return op


def _service_keys(method: str) -> Callable:
    """Span args of a ``ReorderService`` method: the keys of the requests it serves."""
    op = {"reorder_warm": "reorder", "reorder_batch": "reorder"}.get(method, method)

    def args_of(args, kwargs):
        payloads = args[1] if method == "reorder_batch" else [args[1]]
        return {"keys": [serve_request_key(op, p) for p in payloads]}

    return args_of


class _Patches:
    """Undo log of every attribute :func:`install` replaced."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        self.set(cls, attr, wrap(cls.__dict__[attr]))

    def function(self, owner_module, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Rebind ``owner_module.attr`` in every ``repro.*`` module holding it."""
        original = getattr(owner_module, attr)
        wrapped = wrap(original)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, wrapped)

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _defining_classes(classes: Iterable[type], attr: str) -> List[type]:
    """The classes in the MROs of ``classes`` that define a concrete ``attr``."""
    out: List[type] = []
    for cls in classes:
        for klass in cls.__mro__:
            fn = klass.__dict__.get(attr)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            if klass not in out:
                out.append(klass)
    return out


def _all_subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer boundary the benchmark reports; returns the undo call."""
    import repro.bench.fabric as fabric
    import repro.bench.runner as runner
    import repro.collectives.registry as algorithms
    import repro.mapping  # noqa: F401 - loads every mapper class
    import repro.mapping.cache as mapping_cache
    import repro.mapping.reorder as reorder
    import repro.serve.service as service
    import repro.util.atomicio as atomicio
    from repro.collectives.hierarchical import HierarchicalAllgather
    from repro.evaluation.evaluator import AllgatherEvaluator
    from repro.mapping.base import Mapper
    from repro.simmpi.engine import TimingEngine
    from repro.topology.cluster import ClusterTopology

    patches = _Patches()

    def timed(name, args_of=None):
        return lambda fn: _timed(tracer, fn, name, args_of)

    # topology
    patches.method(ClusterTopology, "implicit_distances", timed("topology.implicit_distances"))
    patches.method(ClusterTopology, "routes_for", timed("topology.routes_for"))

    # mapping
    patches.function(reorder, "reorder_all", timed("mapping.reorder_all"))
    patches.function(reorder, "reorder_ranks", timed(_reorder_ranks_name))
    for cls in _defining_classes(_all_subclasses(Mapper), "map"):
        patches.method(cls, "map", timed("mapping.map"))

    def seen(fn):
        @functools.wraps(fn)
        def global_cache():
            cache = fn()
            tracer.see_cache(cache)
            return cache

        return global_cache

    tracer.see_cache(mapping_cache.global_mapping_cache())
    patches.function(mapping_cache, "global_mapping_cache", seen)

    # collectives
    algs = list(algorithms._ALGORITHM_FACTORIES.values()) + [HierarchicalAllgather]
    for cls in _defining_classes(algs, "schedule"):
        patches.method(cls, "schedule", timed("collectives.schedule"))

    # simmpi
    patches.method(TimingEngine, "evaluate_sizes", timed("simmpi.evaluate_sizes"))

    def pricing_span(fn):
        @functools.wraps(fn)
        def pricing(self, *args, **kwargs):
            before = self.pricing_hits
            span = tracer.begin("simmpi.pricing")
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.end(span)
                span[ARGS]["hit"] = self.pricing_hits > before

        return pricing

    patches.method(TimingEngine, "pricing", pricing_span)

    # evaluation
    for attr in ("default_latencies", "reordered_latencies"):
        patches.method(AllgatherEvaluator, attr, timed(f"evaluation.{attr}"))

    # bench: the journal's cell computation carries the mapping-cache
    # traffic it caused, so a warm-state leak shows as first-cell hits.
    def cell_span(fn):
        @functools.wraps(fn)
        def compute_cell(spec, cell):
            cache = mapping_cache.global_mapping_cache()
            before = _cache_counts(cache)
            span = tracer.begin("bench.compute_cell", {"cell": cell})
            try:
                return fn(spec, cell)
            finally:
                tracer.end(span)
                after = _cache_counts(cache)
                span[ARGS]["cache_hits"] = after["hits"] - before["hits"]
                span[ARGS]["cache_misses"] = after["misses"] - before["misses"]

        return compute_cell

    patches.function(runner, "compute_cell", cell_span)
    patches.function(fabric, "fabric_merge", timed("bench.merge"))

    # util
    patches.function(atomicio, "atomic_write_text", timed("util.atomic_write"))

    # serve: every op method of the service, keyed so client requests can
    # be matched to the service time spent on them.
    for attr in ("register_topology", "reorder", "reorder_warm", "reorder_batch", "price"):
        patches.method(
            service.ReorderService, attr, timed("serve.service", _service_keys(attr))
        )

    return patches.undo


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def union_ns(intervals: Sequence[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[list]) -> Dict[str, int]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        clipped = [
            (max(a, s[START]), min(b, s[END]))
            for a, b in children.get(s[ID], ())
            if b > s[START] and a < s[END]
        ]
        out[s[ID]] = (s[END] - s[START]) - union_ns(clipped)
    return out


def outermost(spans: Sequence[list], name: str) -> List[list]:
    """Spans called ``name`` that are not nested inside another of that name."""
    by_id = {s[ID]: s for s in spans}
    out = []
    for s in spans:
        if s[NAME] != name:
            continue
        parent = by_id.get(s[PARENT])
        while parent is not None and parent[NAME] != name:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            out.append(s)
    return out


def coverage_pct(spans: Sequence[list], op_name: str) -> float:
    """Share of op wall time covered by layer spans carrying that op's id."""
    by_op: Dict[object, List[Tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[NAME] != op_name and s[OP] is not None:
            by_op[s[OP]].append((s[START], s[END]))
    wall = covered = 0
    for s in spans:
        if s[NAME] != op_name:
            continue
        wall += s[END] - s[START]
        clipped = [
            (max(a, s[START]), min(b, s[END]))
            for a, b in by_op.get(s[OP], ())
            if b > s[START] and a < s[END]
        ]
        covered += union_ns(clipped)
    return 100.0 * covered / wall if wall else 0.0


def chrome_trace(spans: Sequence[list], process_names: Dict[int, str]) -> dict:
    """Chrome trace-event JSON (the format ``repro.simmpi.traceexport`` writes).

    Complete ("X") events in microseconds from the first span; the span's
    id, parent, op and self time ride in ``args`` so a viewer query can
    rebuild the tree.
    """
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(s[START] for s in spans)
    selfs = self_times(spans)
    events = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": label}}
        for pid, label in sorted(process_names.items())
    ]
    for s in sorted(spans, key=lambda s: s[START]):
        events.append(
            {
                "name": s[NAME],
                "cat": s[NAME].split(".")[0],
                "ph": "X",
                "ts": (s[START] - origin) / 1e3,
                "dur": (s[END] - s[START]) / 1e3,
                "pid": int(s[ID].split("-")[0]),
                "tid": s[THREAD],
                "args": {
                    "id": s[ID],
                    "parent": s[PARENT],
                    "op": s[OP],
                    "self_us": selfs[s[ID]] / 1e3,
                    **s[ARGS],
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
