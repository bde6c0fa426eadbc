"""Sweep harness and reporting tests."""

from typing import List, Sequence

import pytest

from repro.bench.microbench import (
    OSU_SIZES,
    SweepPoint,
    _sweep,
    sweep_hierarchical,
    sweep_nonhierarchical,
)
from repro.bench.report import format_series_csv, format_sweep_table, size_label
from repro.collectives.correctness import (
    OrderStrategy,
    RankReordering,
    end_shuffle_seconds,
    init_comm_stage,
)
from repro.collectives.registry import (
    pattern_of,
    select_allgather,
    select_hierarchical_allgather,
)
from repro.collectives.schedule import Schedule
from repro.evaluation.evaluator import AllgatherEvaluator, _layout_key, _seed_for
from repro.mapping.initial import make_layout
from repro.mapping.reorder import reorder_ranks
from repro.simmpi.engine import TimingEngine


@pytest.fixture(scope="module")
def evaluator(mid_cluster):
    return AllgatherEvaluator(mid_cluster, rng=0)


def _restore_seconds(
    engine: TimingEngine, strategy: str, alg, reordering: RankReordering, bb: float
) -> float:
    """Per-call order restoration of one point, priced alone: free when
    nothing moved or the ring places blocks inline, one extra message
    stage for initComm, local copies for endShfl."""
    if reordering.is_identity() or getattr(alg, "supports_inline_placement", False):
        return 0.0
    if OrderStrategy.parse(strategy) is OrderStrategy.INIT_COMM:
        stage = init_comm_stage(reordering)
        if stage is None:
            return 0.0
        pre = Schedule(p=reordering.p, stages=[stage], name="initcomm")
        return engine.evaluate(pre, reordering.mapping, bb).total_seconds
    return end_shuffle_seconds(reordering, bb, engine.cost)


def naive_sweep(
    evaluator: AllgatherEvaluator,
    p: int,
    layouts: Sequence[str],
    sizes: Sequence[int],
    mappers: Sequence[str],
    strategies: Sequence[str],
    hierarchical: bool = False,
) -> List[SweepPoint]:
    """The seed pipeline: size loop outermost, every point priced alone.

    Each point re-selects the algorithm, rebuilds its schedule, reorders
    anew (uncached ``reorder_ranks`` flat, the two-phase
    ``_hierarchical_reordering`` hierarchical, under the evaluator's
    seed) and prices collective and order restoration through a fresh
    engine's per-size :meth:`TimingEngine.evaluate` — the oracle the
    batched pipeline must reproduce.  Only the evaluator's cluster, cost
    model, threshold and distances are used, none of its entry points
    or caches.
    """
    engine = TimingEngine(evaluator.cluster, evaluator.cost)
    rd = evaluator.rd_threshold
    points: List[SweepPoint] = []
    for lname in layouts:
        L = make_layout(lname, evaluator.cluster, p)
        groups = evaluator.groups_from_layout(L)
        for bb in sizes:
            if hierarchical:
                alg = select_hierarchical_allgather(groups, bb, "binomial", rd)
            else:
                alg = select_allgather(p, bb, rd)
            base = engine.evaluate(alg.schedule(p), L, bb).total_seconds
            for mapper in mappers:
                seed = _seed_for("reorder", _layout_key(L), mapper, hierarchical, "binomial")
                if hierarchical:
                    leader = "recursive-doubling" if alg.leader_alg == "rd" else "ring"
                    ro, groups_new, _ = evaluator._hierarchical_reordering(
                        L, mapper, "binomial", leader, seed
                    )
                    tuned_alg = select_hierarchical_allgather(groups_new, bb, "binomial", rd)
                else:
                    res = reorder_ranks(
                        pattern_of(alg), L, evaluator.distances,
                        kind=mapper, rng=seed, cache="off",
                    )
                    ro, tuned_alg = res.reordering, alg
                coll = engine.evaluate(tuned_alg.schedule(p), ro.mapping, bb).total_seconds
                for strategy in strategies:
                    tuned = coll + _restore_seconds(engine, strategy, tuned_alg, ro, bb)
                    points.append(
                        SweepPoint(
                            layout=lname,
                            block_bytes=int(bb),
                            mapper=mapper,
                            strategy=strategy,
                            hierarchical=hierarchical,
                            intra="binomial",
                            algorithm=tuned_alg.name,
                            base_us=base * 1e6,
                            tuned_us=tuned * 1e6,
                        )
                    )
    return points


SMALL = dict(
    layouts=["block-bunch", "cyclic-scatter"],
    sizes=[1, 1024, 4096, 65536],
    mappers=["heuristic"],
    strategies=["initcomm", "endshfl"],
)


#: The Fig. 4 grid: block layouts only, sizes on both sides of the RD
#: leader threshold, so the batched path reorders for both leader patterns.
HIER = dict(SMALL, layouts=["block-bunch", "block-scatter"])


class TestEquivalence:
    def test_batched_matches_naive_pointwise(self, evaluator):
        """Same grid through both pipelines: same points, same latencies."""
        assert min(HIER["sizes"]) < evaluator.rd_threshold <= max(HIER["sizes"])
        grids = [
            (64, SMALL, False),
            # not a power of two: small sizes take Bruck and BruckMH
            (48, SMALL, False),
            (64, HIER, True),
        ]
        for p, grid, hierarchical in grids:
            naive = naive_sweep(evaluator, p, **grid, hierarchical=hierarchical)
            batched = _sweep(
                evaluator, p, grid["layouts"], grid["sizes"], grid["mappers"],
                grid["strategies"], hierarchical, "binomial", None,
            )
            if p == 48:
                assert {a.algorithm for a in naive} == {"bruck", "ring"}
            assert len(naive) == len(batched)
            for a, b in zip(naive, batched):
                assert (a.layout, a.block_bytes, a.mapper, a.strategy) == (
                    b.layout, b.block_bytes, b.mapper, b.strategy
                )
                assert a.hierarchical == b.hierarchical == hierarchical
                assert a.algorithm == b.algorithm
                assert b.base_us == pytest.approx(a.base_us, rel=1e-9)
                assert b.tuned_us == pytest.approx(a.tuned_us, rel=1e-9)

    def test_workers_sweep_matches_serial(self, evaluator):
        """The process-pool fan-out reproduces the serial sweep exactly."""
        serial = sweep_nonhierarchical(evaluator, 64, **SMALL)
        parallel = sweep_nonhierarchical(evaluator, 64, workers=2, **SMALL)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a == b  # frozen dataclasses: full field equality


class TestSizes:
    def test_osu_range(self):
        assert OSU_SIZES[0] == 1
        assert OSU_SIZES[-1] == 256 * 1024
        assert len(OSU_SIZES) == 19

    def test_size_label(self):
        assert size_label(1) == "1"
        assert size_label(512) == "512"
        assert size_label(1024) == "1K"
        assert size_label(256 * 1024) == "256K"
        assert size_label(1 << 20) == "1M"


class TestSweeps:
    def test_nonhierarchical_point_count(self, evaluator):
        pts = sweep_nonhierarchical(
            evaluator, 64, layouts=["block-bunch", "cyclic-bunch"],
            sizes=[64, 1 << 14], mappers=["heuristic"], strategies=["initcomm"],
        )
        assert len(pts) == 2 * 2
        assert {p.layout for p in pts} == {"block-bunch", "cyclic-bunch"}

    def test_series_labels(self, evaluator):
        pts = sweep_nonhierarchical(
            evaluator, 64, layouts=["block-bunch"], sizes=[64],
            mappers=["heuristic", "scotch"], strategies=["initcomm", "endshfl"],
        )
        assert {p.series for p in pts} == {
            "Hrstc+initComm", "Hrstc+endShfl", "Scotch+initComm", "Scotch+endShfl",
        }

    def test_hierarchical_sweep(self, evaluator):
        pts = sweep_hierarchical(
            evaluator, 64, layouts=["block-scatter"], sizes=[64],
            mappers=["heuristic"], strategies=["initcomm"], intra="linear",
        )
        assert all(p.hierarchical for p in pts)
        assert all(p.intra == "linear" for p in pts)

    def test_improvement_math(self):
        pt = SweepPoint("l", 64, "heuristic", "initcomm", False, "binomial", "ring", 100.0, 75.0)
        assert pt.improvement_pct == pytest.approx(25.0)


class TestReport:
    def test_table_contains_panels_and_sizes(self, evaluator):
        pts = sweep_nonhierarchical(
            evaluator, 64, layouts=["cyclic-bunch"], sizes=[1024, 1 << 14],
            mappers=["heuristic"], strategies=["initcomm"],
        )
        text = format_sweep_table(pts, title="Fig test")
        assert "Fig test" in text
        assert "cyclic-bunch" in text
        assert "1K" in text and "16K" in text
        assert "Hrstc+initComm" in text

    def test_csv(self, evaluator):
        pts = sweep_nonhierarchical(
            evaluator, 64, layouts=["block-bunch"], sizes=[64],
            mappers=["heuristic"], strategies=["initcomm"],
        )
        csv = format_series_csv(pts)
        assert csv.splitlines()[0].startswith("layout,")
        assert len(csv.splitlines()) == 2
