"""Ablation — fine-tuned heuristics vs general-purpose mappers (paper §V).

For every communication pattern, compares the paper's heuristic against
the two pattern-agnostic baselines (Scotch-like dual recursive
bipartitioning and Hoefler-Snir greedy) on three axes: mapping quality
(hop-bytes), simulated collective latency, and mapping wall time.  This
quantifies the paper's §V argument that specialised heuristics get better
mappings *and* lower overheads by skipping the pattern-graph machinery.
"""

import pytest

from repro.collectives.allgather_bruck import BruckAllgather
from repro.collectives.allgather_rd import RecursiveDoublingAllgather
from repro.collectives.allgather_ring import RingAllgather
from repro.collectives.bcast_binomial import BinomialBroadcast
from repro.collectives.gather_binomial import BinomialGather
from repro.mapping.initial import make_layout
from repro.mapping.metrics import hop_bytes
from repro.mapping.patterns import build_pattern
from repro.mapping.reorder import reorder_ranks

PATTERNS = {
    "recursive-doubling": (RecursiveDoublingAllgather(), 1024),
    "ring": (RingAllgather(), 65536),
    "binomial-bcast": (BinomialBroadcast(), 65536),
    "binomial-gather": (BinomialGather(), 65536),
    "bruck": (BruckAllgather(), 1024),
}
KINDS = ["heuristic", "scotch", "greedy"]


@pytest.fixture(scope="module")
def mapper_data(app_evaluator, app_p):
    ev = app_evaluator
    L = make_layout("cyclic-scatter", ev.cluster, app_p)
    out = {}
    for pattern, (alg, bb) in PATTERNS.items():
        graph = build_pattern(pattern, app_p)
        sched = alg.schedule(app_p)
        base_lat = ev.engine.evaluate(sched, L, bb).total_seconds
        rows = {"(initial)": (hop_bytes(graph, L, ev.D), base_lat, 0.0)}
        for kind in KINDS:
            res = reorder_ranks(pattern, L, ev.D, kind=kind, rng=0)
            lat = ev.engine.evaluate(sched, res.mapping, bb).total_seconds
            rows[kind] = (hop_bytes(graph, res.mapping, ev.D), lat, res.total_seconds)
        out[pattern] = rows
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_mapper_timing(benchmark, app_evaluator, app_p, kind):
    L = make_layout("cyclic-scatter", app_evaluator.cluster, app_p)
    benchmark.pedantic(
        reorder_ranks,
        args=("binomial-gather", L, app_evaluator.D),
        kwargs={"kind": kind, "rng": 0},
        rounds=1,
        iterations=1,
    )


def test_mapper_comparison_report(benchmark, mapper_data, app_p, save_report):
    """Hop-bytes and simulated latency (deterministic) and the host-timed
    map seconds go to separate files, so the first can be diffed."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    title = f"Ablation — mapper comparison, p={app_p}, cyclic-scatter"
    lines = [title]
    times = [f"{title}: map time (host-timed)"]
    for pattern, rows in mapper_data.items():
        for out in (lines, times):
            out += ["", f"-- {pattern} --"]
        lines.append(f"{'mapper':>12} {'hop-bytes':>12} {'latency(us)':>12}")
        times.append(f"{'mapper':>12} {'map time(s)':>12}")
        for name, (hop, lat, t) in rows.items():
            lines.append(f"{name:>12} {hop:>12.0f} {lat * 1e6:>12.1f}")
            times.append(f"{name:>12} {t:>12.4f}")
    save_report("ablation_mappers.txt", "\n".join(lines))
    save_report("ablation_mappers_time.txt", "\n".join(times))


def test_heuristics_competitive_and_cheap(benchmark, mapper_data):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    total_h = total_s = total_g = 0.0
    for pattern, rows in mapper_data.items():
        h_hop, h_lat, h_time = rows["heuristic"]
        total_h += h_time
        total_s += rows["scotch"][2]
        total_g += rows["greedy"][2]
        for kind in ("scotch", "greedy"):
            _, k_lat, k_time = rows[kind]
            # competitive latency everywhere
            assert h_lat <= k_lat * 1.15, (pattern, kind)
        # Scotch is always the most expensive mapper (graph + bisection)
        assert h_time < rows["scotch"][2], pattern
    # and over all patterns the heuristics are the cheapest in aggregate
    # (greedy can tie on the degree-2 ring graph, but not overall)
    assert total_h < total_g < total_s
