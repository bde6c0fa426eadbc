"""The names the benchmark of record reads from the program.

``perf/spans.py`` wraps entry points from outside and changes only with
the benchmark, so a rename in ``src/`` that breaks it would fail only
the benchmark's own harness.  This installs its tracer over one small
evaluation and checks what it reads: ``TimingEngine.pricing`` and
``pricing_hits``, and the counters of ``global_mapping_cache()``.
"""

import importlib.util
from pathlib import Path

from repro.evaluation.evaluator import AllgatherEvaluator
from repro.mapping.initial import make_layout
from repro.simmpi.engine import TimingEngine
from repro.topology.gpc import gpc_cluster

SPANS = Path(__file__).resolve().parents[1] / "perf" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perf_spans_under_test", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reads_pricing_and_cache_counters():
    spans = _load_spans()
    pricing = TimingEngine.__dict__["pricing"]
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        cluster = gpc_cluster(n_nodes=8)
        ev = AllgatherEvaluator(cluster, rng=0)
        L = make_layout("cyclic-scatter", cluster, cluster.n_cores)
        for strategy in ("initcomm", "endshfl"):
            ev.reordered_latencies(L, [64, 65536], strategy=strategy)
    finally:
        undo()
    assert TimingEngine.__dict__["pricing"] is pricing
    hits = {s[spans.ARGS]["hit"] for s in tracer.spans if s[spans.NAME] == "simmpi.pricing"}
    assert hits == {False, True}
    deltas = tracer.cache_deltas()
    assert set(deltas) == {"hits", "misses", "evictions"}
    assert deltas["hits"] + deltas["misses"] > 0
