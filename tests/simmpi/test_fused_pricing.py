"""Fused single-pass pricing vs. the per-stage reference walk.

``SchedulePricing.evaluate_sizes`` evaluates every stage's Pareto
envelope in one stage-concatenated broadcast + segmented max; it must be
bit-identical to :func:`evaluate_sizes_reference` (the per-stage loop it
replaced, kept here as the oracle) for every registered algorithm, since
downstream figure pipelines compare latencies across runs with exact
equality.
"""

import dataclasses

import numpy as np
import pytest

from repro.collectives.registry import make_algorithm, registered_algorithm_names
from repro.collectives.schedule import Schedule, make_stage

SIZES = [1.0, 17.0, 1024.0, 2048.0, 65536.0, float(1 << 20)]


def evaluate_sizes_reference(pricing, sizes, extra_copy_bytes=0.0):
    """Per-stage envelope walk — the oracle for the fused pass."""
    sz = pricing._check_sizes(sizes)
    overhead = pricing.cost.stage_overhead
    total = np.zeros(sz.size, dtype=np.float64)
    for stage in pricing.stages:
        total += stage.seconds_for(sz, overhead) * stage.repeat
    return pricing._finish_sizes(sz, total, extra_copy_bytes)


def _schedules(cluster):
    for name in registered_algorithm_names():
        for p in (16, 24, cluster.n_cores):
            try:
                alg = make_algorithm(name)
                alg.validate_p(p)
                yield name, p, alg.schedule(p)
            except (ValueError, TypeError):
                continue


class TestFusedPricingIdentity:
    def test_bit_identical_across_registry(self, mid_cluster, mid_engine):
        checked = 0
        for name, p, sched in _schedules(mid_cluster):
            M = np.arange(mid_cluster.n_cores, dtype=np.int64)[:p]
            pricing = mid_engine.pricing(sched, M)
            fused = pricing.evaluate_sizes(SIZES)
            ref = evaluate_sizes_reference(pricing, SIZES)
            assert np.array_equal(fused.total_seconds, ref.total_seconds), (name, p)
            assert np.array_equal(
                fused.local_copy_seconds, ref.local_copy_seconds
            ), (name, p)
            checked += 1
        assert checked >= 10  # the registry actually got swept

    def test_bit_identical_with_extra_copy_bytes(self, mid_cluster, mid_engine):
        sched = make_algorithm("ring").schedule(32)
        M = np.arange(32, dtype=np.int64)
        pricing = mid_engine.pricing(sched, M)
        fused = pricing.evaluate_sizes(SIZES, extra_copy_bytes=4096.0)
        ref = evaluate_sizes_reference(pricing, SIZES, extra_copy_bytes=4096.0)
        assert np.array_equal(fused.total_seconds, ref.total_seconds)

    def test_bit_identical_under_reordered_mapping(self, mid_cluster, mid_engine):
        from repro.mapping.initial import make_layout
        from repro.mapping.reorder import reorder_ranks

        L = make_layout("cyclic-scatter", mid_cluster, 64)
        res = reorder_ranks("bruck", L, mid_cluster.implicit_distances(), rng=0)
        sched = make_algorithm("bruck").schedule(64)
        pricing = mid_engine.pricing(sched, res.mapping)
        fused = pricing.evaluate_sizes(SIZES)
        ref = evaluate_sizes_reference(pricing, SIZES)
        assert np.array_equal(fused.total_seconds, ref.total_seconds)

    def test_fused_tables_shape(self, mid_cluster, mid_engine):
        sched = make_algorithm("recursive-doubling").schedule(64)
        M = np.arange(64, dtype=np.int64)
        pricing = mid_engine.pricing(sched, M)
        n_env = sum(s.env_alpha.size for s in pricing.stages)
        assert pricing._fused_alpha.size == n_env
        assert pricing._fused_drain.size == n_env
        assert pricing._fused_starts.size == len(pricing.stages)
        assert pricing._fused_starts[0] == 0

    def test_validation_preserved(self, mid_cluster, mid_engine):
        sched = make_algorithm("ring").schedule(16)
        pricing = mid_engine.pricing(sched, np.arange(16, dtype=np.int64))
        with pytest.raises(ValueError, match="non-empty"):
            pricing.evaluate_sizes([])
        with pytest.raises(ValueError, match="positive"):
            pricing.evaluate_sizes([1.0, -2.0])

    def test_priced_schedule_is_immutable(self, mid_engine):
        sched = Schedule(p=4, stages=[make_stage([(0, 1, (0,))])])
        mid_engine.pricing(sched, np.arange(4, dtype=np.int64))
        with pytest.raises(dataclasses.FrozenInstanceError):
            sched.stages = ()
        with pytest.raises(ValueError, match="read-only"):
            sched.stages[0].units[0] = 4.0
