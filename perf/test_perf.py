"""Harness tests: ``PYTHONPATH=src python -m pytest perf -q``.

Every workload runs at full scale but for a single op, through the same
functions ``perf/run.py`` uses.
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict

import pytest

import run
import workloads


@pytest.fixture(scope="module")
def untraced():
    return {
        name: run.run_workload(name, seed=0, seconds=0.1, max_ops=1, setup_repeats=1)
        for name in workloads.WORKLOADS
    }


#: Ops per traced child: one, except enough serve requests for every kind.
TRACED_OPS = {"serve-mix-p1024": 60}


@pytest.fixture(scope="module")
def traced():
    return {
        name: run.run_workload(name, seed=0, seconds=0.2, trace=True, max_ops=TRACED_OPS.get(name, 1))
        for name in workloads.WORKLOADS
    }


def test_benchmark_names_every_workload_but_the_extras():
    listed = [w["name"] for w in run.benchmark()["workloads"]]
    assert sorted(listed + list(run.EXTRA_WORKLOADS)) == sorted(workloads.WORKLOADS)
    assert not set(listed) & set(run.EXTRA_WORKLOADS)


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_metric_emitted_with_its_unit(kind, untraced, traced):
    results = untraced if kind == "end_to_end" else traced
    expected = {m["name"]: m["unit"] for m in run.benchmark()[kind]}
    for name, result in results.items():
        assert result["correct"], (name, result["errors"])
        got = {metric: m["unit"] for metric, m in result["metrics"].items()}
        assert got == expected, name


def test_end_to_end_metrics_are_never_zero(untraced):
    for name, result in untraced.items():
        for metric, m in result["metrics"].items():
            assert m["value"] > 0, (name, metric)


def test_busy_layers_report_work(traced):
    metrics = {name: {k: m["value"] for k, m in r["metrics"].items()} for name, r in traced.items()}
    assert metrics["setup-p16384"]["mapping.reorder_all_calls"] == 1
    assert traced["setup-p16384"]["unlisted"] == {}
    assert traced["fig3-sweep-p1024"]["unlisted"]["mapping.scotch_calls"] > 0
    assert traced["fig3-sweep-p1024"]["unlisted"]["bench.useful_cell_ratio"] == 1
    assert metrics["fig34-price-p4096"]["mapping.map_calls"] > 2000
    assert traced["serve-mix-p1024"]["unlisted"]["serve.warm_inline"] > 0
    for name, values in metrics.items():
        assert 0 < values["trace.coverage_pct"] <= 100, name


def test_trace_is_valid_chrome_json_with_nested_spans(traced):
    for name, result in traced.items():
        doc = json.loads(json.dumps(result["trace"]))
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans, name
        by_id = {e["args"]["id"]: e for e in spans}
        for e in spans:
            assert e["dur"] >= 0 and e["args"]["self_us"] >= -1e-3, (name, e["name"])
            parent = by_id.get(e["args"]["parent"])
            if parent is not None and parent["name"] != "op":
                # op spans live in the parent process; its workers' clocks
                # agree, but only same-process nesting is exact.
                assert parent["ts"] <= e["ts"] + 1e-3, (name, e["name"])
                assert e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1e-3, (name, e["name"])


def test_spawned_workers_start_cold(traced):
    """Each fabric worker's first tuned cell misses the mapping cache.

    A worker forked from a warm parent would inherit its evaluator and
    cache and answer that cell without a single miss.
    """
    cells = defaultdict(list)
    for e in traced["fig3-sweep-p1024"]["trace"]["traceEvents"]:
        if e["name"] == "bench.compute_cell" and e["args"]["cell"].startswith("tuned::"):
            cells[e["pid"]].append(e)
    assert len(cells) == workloads.Fig3SweepP1024.WORKERS
    for events in cells.values():
        first = min(events, key=lambda e: e["ts"])
        assert first["args"]["cache_misses"] > 0
        assert first["args"]["cache_hits"] == 0


def _failed_frac(workload):
    """``failed_frac`` of a one-op window; every failure must be a wrong output."""
    try:
        meas = workloads.run_window(workload, 0.0, max_ops=1)
    finally:
        workload.close()
    assert meas.wrong == set(meas.failed)
    return len(meas.failed) / meas.attempted


def test_corrupted_fabric_reference_fails_every_op(tmp_path):
    wl = workloads.Fig3SweepP1024(0, tmp_path)
    wl.setup()
    wl.reference = wl.reference.replace(b"e", b"E", 1)
    assert _failed_frac(wl) == 1.0


def test_corrupted_pricing_reference_fails_every_op(tmp_path):
    wl = workloads.Fig34PriceP4096(0, tmp_path)
    wl.setup()
    wl.reference[0] = dataclasses.replace(wl.reference[0], tuned_us=wl.reference[0].tuned_us * 2)
    assert _failed_frac(wl) == 1.0


def test_corrupted_serve_oracle_fails_the_requests_it_judges(tmp_path):
    wl = workloads.ServeMixP1024(0, tmp_path)
    wl.setup()
    wl.solo_mapping = lambda *args: []
    try:
        meas = workloads.run_window(wl, 0.0, max_ops=40)
    finally:
        wl.close()
    reorders = {index for index, kind, *_ in wl.requests if kind != "price"}
    assert reorders and set(meas.failed) == reorders == meas.wrong


def test_corrupted_reorder_oracle_fails_the_op(tmp_path):
    wl = workloads.SetupP16384(0, tmp_path)
    wl.setup()
    wl.solo = lambda pattern, layout, D, seed: layout[::-1]
    assert _failed_frac(wl) == 1.0
