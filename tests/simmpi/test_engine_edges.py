"""Remaining engine edge paths: copies, breakdowns, degenerate inputs."""

import numpy as np
import pytest

from repro.collectives.schedule import Schedule, Stage
from repro.simmpi.costmodel import CostModel
from repro.simmpi.engine import TimingEngine


def msg(src, dst, units=1.0):
    return Stage(src=np.array([src]), dst=np.array([dst]), units=np.array([units]))


class TestBlockBytes:
    @pytest.mark.parametrize("block_bytes", [float("nan"), float("inf")])
    def test_non_finite_block_bytes_refused(self, mid_engine, mid_cluster, block_bytes):
        """``evaluate`` refuses a non-finite block; inf used to price as NaN."""
        M = np.arange(mid_cluster.n_cores)
        sched = Schedule(p=2, stages=[msg(0, 1)])
        with pytest.raises(ValueError, match="finite"):
            mid_engine.evaluate(sched, M, block_bytes)


class TestExtraCopyBytes:
    def test_extra_copy_added(self, mid_engine, mid_cluster):
        M = np.arange(mid_cluster.n_cores)
        sched = Schedule(p=2, stages=[msg(0, 1)])
        base = mid_engine.evaluate(sched, M, 1024).total_seconds
        with_copy = mid_engine.evaluate(sched, M, 1024, extra_copy_bytes=1 << 20).total_seconds
        assert with_copy - base == pytest.approx(
            mid_engine.cost.copy_cost(float(1 << 20)), rel=1e-9
        )

    def test_zero_copy_free(self, mid_engine, mid_cluster):
        M = np.arange(mid_cluster.n_cores)
        sched = Schedule(p=2, stages=[msg(0, 1)])
        a = mid_engine.evaluate(sched, M, 1024).total_seconds
        b = mid_engine.evaluate(sched, M, 1024, extra_copy_bytes=0.0).total_seconds
        assert a == b

    @pytest.mark.parametrize("extra", [float("nan"), float("inf"), -1.0, -1e9])
    def test_bad_extra_copy_refused_by_evaluate(self, mid_engine, mid_cluster, extra):
        """``evaluate`` used to return a NaN total for a NaN copy."""
        M = np.arange(mid_cluster.n_cores)
        sched = Schedule(p=2, stages=[msg(0, 1)])
        with pytest.raises(ValueError, match="extra_copy_bytes"):
            mid_engine.evaluate(sched, M, 1024, extra_copy_bytes=extra)

    @pytest.mark.parametrize("extra", [float("nan"), float("inf"), -1.0, -1e9])
    def test_bad_extra_copy_refused_by_evaluate_sizes(self, mid_engine, mid_cluster, extra):
        """``evaluate_sizes`` used to price NaN and negative copies as free."""
        M = np.arange(mid_cluster.n_cores)
        sched = Schedule(p=2, stages=[msg(0, 1)])
        pricing = mid_engine.pricing(sched, M)
        with pytest.raises(ValueError, match="extra_copy_bytes"):
            pricing.evaluate_sizes([1024.0], extra_copy_bytes=extra)
        with pytest.raises(ValueError, match="extra_copy_bytes"):
            mid_engine.evaluate_sizes(sched, M, [1024.0], extra_copy_bytes=extra)


class TestStageOverhead:
    def test_overhead_is_per_stage(self, mid_cluster):
        loud = TimingEngine(mid_cluster, CostModel(stage_overhead=1e-3))
        quiet = TimingEngine(mid_cluster, CostModel(stage_overhead=0.0))
        M = np.arange(mid_cluster.n_cores)
        sched = Schedule(p=2, stages=[msg(0, 1), msg(1, 0)])
        gap = (
            loud.evaluate(sched, M, 64).total_seconds
            - quiet.evaluate(sched, M, 64).total_seconds
        )
        assert gap == pytest.approx(2e-3)


class TestFractionalUnits:
    def test_rabenseifner_fractions_priced(self, mid_engine, mid_cluster):
        """Fractional units (Rabenseifner's halving) scale the bytes."""
        M = np.arange(mid_cluster.n_cores)
        half = Schedule(p=9, stages=[msg(0, 8, units=0.5)])
        full = Schedule(p=9, stages=[msg(0, 8, units=1.0)])
        t_half = mid_engine.evaluate(half, M, 1 << 20).total_seconds
        t_full = mid_engine.evaluate(full, M, 1 << 20).total_seconds
        assert t_half < t_full
        # the bandwidth component halves exactly
        cm = mid_engine.cost
        assert (t_full - t_half) == pytest.approx(
            (1 << 19) / 2.7e9, rel=0.05
        )


class TestResultObjects:
    def test_stage_timing_totals(self, mid_engine, mid_cluster):
        M = np.arange(mid_cluster.n_cores)
        sched = Schedule(
            p=2,
            stages=[Stage(np.array([0]), np.array([1]), np.ones(1), repeat=7, label="x")],
        )
        res = mid_engine.evaluate(sched, M, 64)
        st = res.stage_timings[0]
        assert st.total_seconds == pytest.approx(st.seconds * 7)
        assert st.repeat == 7
        assert res.total_seconds == pytest.approx(st.total_seconds)

    def test_max_link_load_reported(self, mid_engine, mid_cluster):
        M = np.arange(mid_cluster.n_cores)
        sched = Schedule(p=12, stages=[Stage(np.arange(4), np.arange(4) + 8, np.ones(4))])
        res = mid_engine.evaluate(sched, M, 1000)
        assert res.stage_timings[0].max_link_load_bytes == pytest.approx(4000.0)
