"""Batched multi-size pricing vs. the per-size reference path.

``TimingEngine.evaluate_sizes`` must reproduce ``evaluate`` for every
registered algorithm, communicator size, mapping and block size — the
batched pipeline is an optimisation, never a semantic change.
"""

import functools

import numpy as np
import pytest

from repro.collectives.registry import make_algorithm, registered_algorithm_names
from repro.collectives.schedule import Schedule
from repro.simmpi.costmodel import CostModel
from repro.simmpi.engine import TimingEngine
from repro.topology.gpc import gpc_cluster
from repro.util.rng import make_rng

CLUSTER = gpc_cluster(4)  # 32 cores
ENGINE = TimingEngine(CLUSTER, CostModel())

#: 1 B .. 256 KiB, deliberately including non-powers-of-two.
SIZES = [1.0, 7.0, 256.0, 2048.0, 5000.0, 65536.0, 262144.0]

P_VALUES = [4, 8, 16, 32]


def _supported(name: str, p: int):
    alg = make_algorithm(name)
    try:
        alg.validate_p(p)
    except ValueError:
        return None
    return alg


def _mappings(p: int, seed: int):
    rng = make_rng(seed)
    return [
        np.arange(p, dtype=np.int64),
        rng.permutation(CLUSTER.n_cores)[:p].astype(np.int64),
    ]


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("name", registered_algorithm_names())
def test_evaluate_sizes_matches_per_size(name, p):
    alg = _supported(name, p)
    if alg is None:
        pytest.skip(f"{name} rejects p={p}")
    sched = alg.schedule(p)
    for M in _mappings(p, seed=p):
        batch = ENGINE.evaluate_sizes(sched, M, SIZES)
        for k, bb in enumerate(SIZES):
            ref = ENGINE.evaluate(sched, M, bb)
            assert batch.total_seconds[k] == pytest.approx(
                ref.total_seconds, rel=1e-9
            ), f"{name} p={p} size={bb}"
            assert batch.local_copy_seconds[k] == pytest.approx(
                ref.local_copy_seconds, rel=1e-9
            )


@pytest.mark.parametrize("name", ["ring", "recursive-doubling"])
def test_batch_result_expansion_matches_stage_timings(name):
    """``BatchTimingResult.result(k)`` rebuilds the per-stage breakdown."""
    p = 16
    sched = make_algorithm(name).schedule(p)
    M = np.arange(p, dtype=np.int64)
    batch = ENGINE.evaluate_sizes(sched, M, SIZES)
    for k, bb in enumerate(SIZES):
        ref = ENGINE.evaluate(sched, M, bb)
        got = batch.result(k)
        assert got.total_seconds == pytest.approx(ref.total_seconds, rel=1e-9)
        assert len(got.stage_timings) == len(ref.stage_timings)
        for a, b in zip(got.stage_timings, ref.stage_timings):
            assert a.label == b.label
            assert a.repeat == b.repeat
            assert a.seconds == pytest.approx(b.seconds, rel=1e-9)
            assert a.max_link_load_bytes == pytest.approx(
                b.max_link_load_bytes, rel=1e-9
            )


def test_extra_copy_bytes_agrees():
    """The endShfl shuffle surcharge is priced identically in both paths."""
    p = 16
    sched = make_algorithm("ring").schedule(p)
    M = np.arange(p, dtype=np.int64)
    extra = 12345.0
    batch = ENGINE.evaluate_sizes(sched, M, SIZES, extra_copy_bytes=extra)
    for k, bb in enumerate(SIZES):
        ref = ENGINE.evaluate(sched, M, bb, extra_copy_bytes=extra)
        assert batch.total_seconds[k] == pytest.approx(ref.total_seconds, rel=1e-9)


@pytest.mark.parametrize("name", registered_algorithm_names())
def test_degraded_links_still_agree(name):
    """Per-link beta scaling (degraded-link studies) flows through the
    batched tables exactly as through the per-size path."""
    p = 16
    alg = _supported(name, p)
    if alg is None:
        pytest.skip(f"{name} rejects p={p}")
    rng = make_rng(42)
    scale = np.ones(CLUSTER.n_links)
    degraded = rng.choice(CLUSTER.n_links, size=CLUSTER.n_links // 8, replace=False)
    scale[degraded] = 4.0  # quarter bandwidth on a random eighth of links
    eng = TimingEngine(CLUSTER, CostModel(), link_beta_scale=scale)
    sched = alg.schedule(p)
    for M in _mappings(p, seed=1):
        batch = eng.evaluate_sizes(sched, M, SIZES)
        for k, bb in enumerate(SIZES):
            ref = eng.evaluate(sched, M, bb)
            assert batch.total_seconds[k] == pytest.approx(
                ref.total_seconds, rel=1e-9
            ), f"{name} size={bb}"


def test_pricing_cache_shares_tables():
    """Equal (schedule, mapping) pairs hit one cached pricing object."""
    p = 16
    eng = TimingEngine(CLUSTER, CostModel())
    alg = make_algorithm("ring")
    M = np.arange(p, dtype=np.int64)
    first = eng.pricing(alg.schedule(p), M)
    again = eng.pricing(alg.schedule(p), np.array(M))  # rebuilt schedule + copy
    assert again is first


def test_schedule_digest_computed_once(monkeypatch):
    """Three mappings of one Schedule hash it once; an equal rebuilt
    schedule hashes once more and hits the first table."""
    computed = []
    digest = Schedule.__dict__["digest"].func

    def counted(schedule):
        computed.append(schedule)
        return digest(schedule)

    kept = functools.cached_property(counted)
    kept.__set_name__(Schedule, "digest")
    monkeypatch.setattr(Schedule, "digest", kept)

    p = 16
    eng = TimingEngine(CLUSTER, CostModel())
    sched = make_algorithm("ring").schedule(p)
    rng = make_rng(5)
    mappings = [np.arange(p), rng.permutation(p), rng.permutation(CLUSTER.n_cores)[:p]]
    tables = [eng.pricing(sched, M) for M in mappings]
    assert computed == [sched]
    assert len({id(t) for t in tables}) == 3
    again = make_algorithm("ring").schedule(p)
    assert eng.pricing(again, mappings[0]) is tables[0]
    assert computed == [sched, again]
    assert (eng.pricing_misses, eng.pricing_hits) == (3, 1)


def test_sizes_validation():
    p = 8
    sched = make_algorithm("ring").schedule(p)
    M = np.arange(p, dtype=np.int64)
    with pytest.raises(ValueError, match="non-empty"):
        ENGINE.evaluate_sizes(sched, M, [])
    with pytest.raises(ValueError, match="positive"):
        ENGINE.evaluate_sizes(sched, M, [1024.0, 0.0])


@pytest.mark.parametrize("size", [float("nan"), float("inf")])
def test_non_finite_sizes_refused(size):
    """A NaN or infinite size is refused, not priced as NaN or inf."""
    p = 8
    sched = make_algorithm("ring").schedule(p)
    M = np.arange(p, dtype=np.int64)
    with pytest.raises(ValueError, match="finite"):
        ENGINE.evaluate_sizes(sched, M, [1024.0, size])
