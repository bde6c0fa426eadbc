"""OSU-micro-benchmark-style latency sweeps (paper §VI-A).

The paper measures MPI_Allgather latency with the OSU micro-benchmarks
over message sizes 1 B - 256 KiB at 4096 processes, for four initial
mappings, and reports the percentage improvement of each reordering
scheme over the default.  These sweep functions produce exactly those
series; the figure benches under ``benchmarks/`` print them.

The sweep is organised so the *size* loop is innermost and batched: per
(layout, mapper, strategy) grid cell one
:meth:`~repro.evaluation.evaluator.AllgatherEvaluator.reordered_latencies`
call prices every message size against shared route/alpha/unit-load
tables (see ``docs/performance.md``).  These sweeps run serially in
memory; a parallel or crash-safe run of the same grid is a sweep journal
(:mod:`repro.bench.runner`) worked by supervised fabric workers
(:func:`repro.bench.fabric.run_workers`), bit-identical because every
reordering seed is derived deterministically from the cell's content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple


from repro.evaluation.evaluator import AllgatherEvaluator, LatencyReport
from repro.mapping.initial import make_layout

__all__ = ["OSU_SIZES", "SweepPoint", "sweep_nonhierarchical", "sweep_hierarchical"]

#: Message sizes of the paper's sweeps: 1 B .. 256 KiB in powers of two.
OSU_SIZES = [1 << k for k in range(19)]


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a paper figure."""

    layout: str
    block_bytes: int
    mapper: str            # "heuristic" | "scotch" | "greedy"
    strategy: str          # requested restoration strategy
    hierarchical: bool
    intra: str
    algorithm: str
    base_us: float
    tuned_us: float

    @property
    def improvement_pct(self) -> float:
        """Percent latency improvement over the default mapping."""
        if self.base_us == 0.0:
            return 0.0
        return 100.0 * (self.base_us - self.tuned_us) / self.base_us

    @property
    def series(self) -> str:
        """Legend label, paper-style (e.g. ``Hrstc+initComm``)."""
        mapper = {"heuristic": "Hrstc", "scotch": "Scotch", "greedy": "Greedy"}.get(
            self.mapper, self.mapper
        )
        strat = {"initcomm": "initComm", "endshfl": "endShfl"}.get(
            self.strategy, self.strategy
        )
        return f"{mapper}+{strat}"


def sweep_nonhierarchical(
    evaluator: AllgatherEvaluator,
    p: int,
    layouts: Sequence[str] = ("block-bunch", "block-scatter", "cyclic-bunch", "cyclic-scatter"),
    sizes: Iterable[int] = OSU_SIZES,
    mappers: Sequence[str] = ("heuristic", "scotch"),
    strategies: Sequence[str] = ("initcomm", "endshfl"),
) -> List[SweepPoint]:
    """The Fig. 3 sweep: non-hierarchical allgather, four initial mappings."""
    return _sweep(evaluator, p, layouts, sizes, mappers, strategies, False, "binomial")


def sweep_hierarchical(
    evaluator: AllgatherEvaluator,
    p: int,
    layouts: Sequence[str] = ("block-bunch", "block-scatter"),
    sizes: Iterable[int] = OSU_SIZES,
    mappers: Sequence[str] = ("heuristic", "scotch"),
    strategies: Sequence[str] = ("initcomm", "endshfl"),
    intra: str = "binomial",
) -> List[SweepPoint]:
    """The Fig. 4 sweep: hierarchical allgather, block mappings only.

    The paper skips cyclic mappings here ("hierarchical allgather is not
    supported with cyclic mapping" in MVAPICH).
    """
    return _sweep(evaluator, p, layouts, sizes, mappers, strategies, True, intra)


def _sweep(
    evaluator: AllgatherEvaluator,
    p: int,
    layouts: Sequence[str],
    sizes: Iterable[int],
    mappers: Sequence[str],
    strategies: Sequence[str],
    hierarchical: bool,
    intra: str,
) -> List[SweepPoint]:
    sizes = list(sizes)
    base: Dict[str, List[LatencyReport]] = {}
    tuned: Dict[Tuple[str, str], Dict[str, List[LatencyReport]]] = {}
    for lname in layouts:
        L = make_layout(lname, evaluator.cluster, p)
        base[lname] = evaluator.default_latencies(L, sizes, hierarchical, intra)
        for mapper in mappers:
            tuned[(lname, mapper)] = {
                strategy: evaluator.reordered_latencies(
                    L, sizes, mapper, strategy, hierarchical, intra
                )
                for strategy in strategies
            }

    points: List[SweepPoint] = []
    for lname in layouts:
        for si, bb in enumerate(sizes):
            base_rep = base[lname][si]
            for mapper in mappers:
                for strategy in strategies:
                    rep = tuned[(lname, mapper)][strategy][si]
                    points.append(
                        SweepPoint(
                            layout=lname,
                            block_bytes=int(bb),
                            mapper=mapper,
                            strategy=strategy,
                            hierarchical=hierarchical,
                            intra=intra,
                            algorithm=rep.algorithm,
                            base_us=base_rep.seconds * 1e6,
                            tuned_us=rep.seconds * 1e6,
                        )
                    )
    return points
