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
from repro.evaluation.evaluator import AllgatherEvaluator
from repro.mapping.initial import make_layout


@pytest.fixture(scope="module")
def evaluator(mid_cluster):
    return AllgatherEvaluator(mid_cluster, rng=0)


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

    Each point re-selects the algorithm, rebuilds its schedule and
    re-prices it from scratch through :meth:`TimingEngine.evaluate` —
    the oracle the batched pipeline must reproduce.
    """
    points: List[SweepPoint] = []
    for lname in layouts:
        L = make_layout(lname, evaluator.cluster, p)
        for bb in sizes:
            base = evaluator.default_latency(L, bb, hierarchical)
            for mapper in mappers:
                for strategy in strategies:
                    tuned = evaluator.reordered_latency(
                        L, bb, mapper, strategy, hierarchical
                    )
                    points.append(
                        SweepPoint(
                            layout=lname,
                            block_bytes=int(bb),
                            mapper=mapper,
                            strategy=strategy,
                            hierarchical=hierarchical,
                            intra="binomial",
                            algorithm=tuned.algorithm,
                            base_us=base.seconds * 1e6,
                            tuned_us=tuned.seconds * 1e6,
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
    def test_batched_matches_naive_pointwise(self, evaluator, mid_cluster):
        """Same grid through both pipelines: same points, same latencies."""
        assert min(HIER["sizes"]) < evaluator.rd_threshold <= max(HIER["sizes"])
        grids = [
            # flat: one evaluator serves both pipelines
            (evaluator, evaluator, SMALL, False),
            # hierarchical: fresh evaluators, so neither side reuses the
            # other's cached reorderings
            (
                AllgatherEvaluator(mid_cluster, rng=0),
                AllgatherEvaluator(mid_cluster, rng=0),
                HIER,
                True,
            ),
        ]
        for naive_ev, batched_ev, grid, hierarchical in grids:
            naive = naive_sweep(naive_ev, 64, **grid, hierarchical=hierarchical)
            batched = _sweep(
                batched_ev, 64, grid["layouts"], grid["sizes"], grid["mappers"],
                grid["strategies"], hierarchical, "binomial", None,
            )
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
