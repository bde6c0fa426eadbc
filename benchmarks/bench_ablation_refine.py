"""Ablation — construction-only heuristics vs added swap refinement.

The paper's heuristics place each rank once and never revisit (greedy
construction).  This bench asks what a cheap local-search post-pass
(:class:`repro.mapping.refine.SwapRefiner`) buys on top: mapping quality,
simulated latency, and the extra mapping time — the classic
construction-vs-refinement trade-off in topology mapping.
"""

import time

import pytest

from repro.collectives.allgather_rd import RecursiveDoublingAllgather
from repro.collectives.allgather_ring import RingAllgather
from repro.mapping.initial import make_layout
from repro.mapping.metrics import hop_bytes
from repro.mapping.patterns import build_pattern
from repro.mapping.refine import SwapRefiner
from repro.mapping.reorder import reorder_ranks

CASES = {
    "recursive-doubling": (RecursiveDoublingAllgather(), 1024),
    "ring": (RingAllgather(), 65536),
}


@pytest.fixture(scope="module")
def refine_data(app_evaluator, app_p):
    ev = app_evaluator
    L = make_layout("cyclic-scatter", ev.cluster, app_p)
    out = {}
    for pattern, (alg, bb) in CASES.items():
        graph = build_pattern(pattern, app_p)
        sched = alg.schedule(app_p)
        res = reorder_ranks(pattern, L, ev.D, kind="heuristic", rng=0)
        t0 = time.perf_counter()
        refined = SwapRefiner(graph, max_passes=4).refine(res.mapping, ev.D, rng=0)
        refine_seconds = time.perf_counter() - t0
        out[pattern] = {
            "raw": (
                hop_bytes(graph, res.mapping, ev.D),
                ev.engine.evaluate(sched, res.mapping, bb).total_seconds,
                res.total_seconds,
            ),
            "refined": (
                refined.final_hop_bytes,
                ev.engine.evaluate(sched, refined.mapping, bb).total_seconds,
                res.total_seconds + refine_seconds,
            ),
        }
    return out


def test_refine_timing(benchmark, app_evaluator, app_p):
    L = make_layout("cyclic-scatter", app_evaluator.cluster, app_p)
    res = reorder_ranks("ring", L, app_evaluator.D, kind="heuristic", rng=0)
    refiner = SwapRefiner(build_pattern("ring", app_p))
    benchmark.pedantic(
        refiner.refine, args=(res.mapping, app_evaluator.D), kwargs={"rng": 0},
        rounds=1, iterations=1,
    )


def test_refine_report(benchmark, refine_data, app_p, save_report):
    """Hop-bytes and simulated latency (deterministic) and the host-timed
    map seconds go to separate files, so the first can be diffed."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    title = f"Ablation — heuristic construction vs +swap refinement, p={app_p}, cyclic-scatter"
    lines = [title]
    times = [f"{title}: map time (host-timed)"]
    for pattern, rows in refine_data.items():
        for out in (lines, times):
            out += ["", f"-- {pattern} --"]
        lines.append(f"{'variant':>10} {'hop-bytes':>12} {'latency(us)':>12}")
        times.append(f"{'variant':>10} {'map time(s)':>12}")
        for name in ("raw", "refined"):
            hop, lat, t = rows[name]
            lines.append(f"{name:>10} {hop:>12.0f} {lat * 1e6:>12.1f}")
            times.append(f"{name:>10} {t:>12.4f}")
    save_report("ablation_refine.txt", "\n".join(lines))
    save_report("ablation_refine_time.txt", "\n".join(times))


def test_refinement_never_hurts_quality(benchmark, refine_data):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for pattern, rows in refine_data.items():
        raw_hop, raw_lat, raw_t = rows["raw"]
        ref_hop, ref_lat, ref_t = rows["refined"]
        assert ref_hop <= raw_hop, pattern             # hop-bytes monotone
        assert ref_lat <= raw_lat * 1.10, pattern      # latency ~never worse
        assert ref_t >= raw_t                          # refinement costs time
