"""The paper's measurement pipeline (§VI) as a reusable object.

For a given cluster, initial layout and per-rank message size the
evaluator:

1. selects the allgather algorithm the way MVAPICH would (recursive
   doubling / Bruck below the size threshold, ring above; hierarchical
   variants with RD/ring leader exchanges);
2. computes a rank reordering with the requested mapper (the paper's
   fine-tuned heuristics, the Scotch-like baseline, or the greedy
   baseline) — cached per (pattern, layout, mapper), since "the whole
   rank reordering process happens only once at run-time";
3. prices the collective under the reordered mapping, plus the
   order-restoration mechanism (initComm priced as one extra message
   stage, endShfl as local copies, the ring's inline fix as free);
4. reports latency and percentage improvement over the default mapping.

For hierarchical allgather, reordering is applied "to node-leaders and
local processes separately" (paper §VI-A2): the intra-node permutation
comes from BGMH over each node's cores (the gather phase dominates the
intra-node gains, Fig. 4(b) commentary) and the leader permutation from
RDMH/RMH over the leader cores; with linear intra-node phases there is no
intra-node pattern to optimise and only leaders are reordered.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.collectives.correctness import (
    OrderStrategy,
    RankReordering,
    end_shuffle_seconds,
    init_comm_stage,
)
from repro.collectives.registry import (
    DEFAULT_RD_THRESHOLD_BYTES,
    compiled_schedule,
    hierarchical_leader_alg,
    hierarchical_schedule,
    pattern_of,
    select_allgather,
)
from repro.collectives.schedule import Schedule
from repro.mapping.base import Mapper
from repro.mapping.bgmh import BGMH
from repro.mapping.greedy import GreedyGraphMapper
from repro.mapping.patterns import build_pattern
from repro.mapping.reorder import ReorderResult, reorder_all, reorder_ranks
from repro.mapping.scotch import ScotchLikeMapper
from repro.simmpi.costmodel import CostModel
from repro.simmpi.engine import TimingEngine
from repro.topology.cluster import ClusterTopology
from repro.util.rng import RngLike, make_rng

__all__ = ["AllgatherEvaluator", "LatencyReport"]


@dataclass
class LatencyReport:
    """Latency of one allgather configuration.

    ``seconds`` is what a micro-benchmark loop would time: collective plus
    per-call order restoration.  ``reorder_seconds`` is the one-time
    mapping overhead, reported separately (as in the paper's Fig. 7) so
    micro-benchmarks exclude it while application runs amortise it.
    """

    seconds: float
    algorithm: str
    strategy: str
    collective_seconds: float
    restore_seconds: float = 0.0
    reorder_seconds: float = 0.0
    mapper: str = "none"

    def __str__(self) -> str:
        return (
            f"{self.algorithm} [{self.mapper}/{self.strategy}] "
            f"{self.seconds * 1e6:.1f} us"
        )


def _layout_key(layout: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(layout).tobytes()).hexdigest()


def _seed_for(*parts) -> int:
    """Deterministic, order-independent seed from the cache key.

    Tie-breaking stays "random" in the paper's sense but no longer
    depends on how many reorderings were computed before this one, so
    results are stable under any evaluation order.
    """
    blob = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha1(blob).digest()[:4], "big")


class AllgatherEvaluator:
    """Prices MPI_Allgather on a simulated cluster under rank reordering."""

    def __init__(
        self,
        cluster: ClusterTopology,
        cost_model: Optional[CostModel] = None,
        rd_threshold: float = DEFAULT_RD_THRESHOLD_BYTES,
        intra_heuristic: str = "bgmh",
        rng: RngLike = 0,
    ) -> None:
        if intra_heuristic not in ("bgmh", "bbmh"):
            raise ValueError(
                f"intra_heuristic must be 'bgmh' or 'bbmh', got {intra_heuristic!r}"
            )
        self.cluster = cluster
        self.cost = cost_model if cost_model is not None else CostModel()
        self.engine = TimingEngine(cluster, self.cost)
        self.rd_threshold = rd_threshold
        self.intra_heuristic = intra_heuristic
        self.rng = make_rng(rng)
        # Mapping-facing distances: the implicit backend computes rows on
        # demand (no dense n_cores x n_cores materialisation) and carries
        # the topology fingerprint that keys the mapping cache.
        self.distances = cluster.implicit_distances()
        self._D: Optional[np.ndarray] = None
        self._reorder_cache: Dict[Tuple, object] = {}

    @property
    def D(self) -> np.ndarray:
        """Dense distance matrix (materialised lazily, for legacy callers)."""
        if self._D is None:
            self._D = self.cluster.distance_matrix()
        return self._D

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def groups_from_layout(self, layout: Sequence[int]) -> List[List[int]]:
        """Node communicators: ranks grouped by hosting node, rank order.

        Mirrors what an MPI library's shared-memory communicator split
        produces (lowest world rank on each node becomes the leader).
        """
        ranks, sizes = self._node_partition(np.asarray(layout, dtype=np.int64))
        flat = ranks.tolist()
        ends = np.cumsum(sizes).tolist()
        return [flat[end - m : end] for end, m in zip(ends, sizes.tolist())]

    def _node_partition(self, L: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`groups_from_layout` flat: ranks in group order, group sizes."""
        nodes = self.cluster.node_of(L)
        order = np.argsort(nodes, kind="stable")
        by_node = nodes[order]
        cuts = np.flatnonzero(by_node[1:] != by_node[:-1]) + 1
        return order, np.diff(np.concatenate(([0], cuts, [L.size])))

    def _restore(
        self,
        strat: OrderStrategy,
        algorithm_name: str,
        reordering: RankReordering,
        sizes: Sequence[float],
        inline: bool = False,
    ) -> Tuple[str, np.ndarray]:
        """Effective strategy name and its per-call cost at each size
        (``inline``: the algorithm places blocks in order itself)."""
        zeros = np.zeros(len(sizes), dtype=np.float64)
        if reordering.is_identity():
            return OrderStrategy.NONE.value, zeros
        if inline:
            # Paper §V-B: the ring resolves ordering inside the algorithm.
            return OrderStrategy.INLINE.value, zeros
        if strat is OrderStrategy.INIT_COMM:
            stage = init_comm_stage(reordering)
            if stage is None:
                return OrderStrategy.NONE.value, zeros
            pre = Schedule(p=reordering.p, stages=[stage], name="initcomm")
            batch = self.engine.evaluate_sizes(pre, reordering.mapping, sizes)
            return strat.value, batch.total_seconds
        if strat is OrderStrategy.END_SHUFFLE:
            sz = np.asarray(sizes, dtype=np.float64)
            return strat.value, end_shuffle_seconds(reordering, sz, self.cost)
        raise ValueError(f"strategy {strat} not usable for {algorithm_name}")

    # ------------------------------------------------------------------
    # the pipeline: every entry point prices a size vector
    # ------------------------------------------------------------------
    @staticmethod
    def _group_sizes(keys: Sequence) -> List[Tuple[object, List[int]]]:
        """Group size indices by selection key, preserving first-seen order."""
        groups: Dict[object, List[int]] = {}
        order: List[object] = []
        for i, k in enumerate(keys):
            if k not in groups:
                groups[k] = []
                order.append(k)
            groups[k].append(i)
        return [(k, groups[k]) for k in order]

    def default_latencies(
        self,
        layout: Sequence[int],
        sizes: Sequence[float],
        hierarchical: bool = False,
        intra: str = "binomial",
    ) -> List[LatencyReport]:
        """Latency of the MVAPICH-style default under the raw layout, per size.

        One report per entry of ``sizes``.  Sizes are partitioned by the
        algorithm MVAPICH-style selection picks for them; each partition
        is priced with a single :meth:`TimingEngine.evaluate_sizes` call
        over the memo's schedule, so routes and unit loads are computed
        once per algorithm instead of once per size.
        """
        L = np.asarray(layout, dtype=np.int64)
        p = L.size
        sizes = list(sizes)
        out: List[Optional[LatencyReport]] = [None] * len(sizes)
        if hierarchical:
            ranks, group_sizes = self._node_partition(L)
            picks = [
                hierarchical_leader_alg(group_sizes.size, bb, self.rd_threshold) for bb in sizes
            ]
        else:
            picks = [select_allgather(p, bb, self.rd_threshold).name for bb in sizes]
        for pick, idxs in self._group_sizes(picks):
            if hierarchical:
                sched = hierarchical_schedule(ranks, group_sizes, pick, intra)
            else:
                sched = compiled_schedule(pick, p)
            batch = self.engine.evaluate_sizes(sched, L, [sizes[i] for i in idxs])
            for j, i in enumerate(idxs):
                coll = float(batch.total_seconds[j])
                out[i] = LatencyReport(
                    seconds=coll,
                    algorithm=sched.name,
                    strategy=OrderStrategy.NONE.value,
                    collective_seconds=coll,
                )
        return out  # type: ignore[return-value]

    def reordered_latencies(
        self,
        layout: Sequence[int],
        sizes: Sequence[float],
        kind: str = "heuristic",
        strategy: str = "initcomm",
        hierarchical: bool = False,
        intra: str = "binomial",
    ) -> List[LatencyReport]:
        """Latency under topology-aware rank reordering, per size.

        Reorderings are cached per (pattern, layout, mapper) under a seed
        derived from that key, so results do not depend on call order;
        schedules come from the memo and pricing tables are built once per partition.
        """
        L = np.asarray(layout, dtype=np.int64)
        strat = OrderStrategy.parse(strategy)
        sizes = list(sizes)
        lk = _layout_key(L)
        rng = _seed_for("reorder", lk, kind, hierarchical, intra)
        if hierarchical:
            return self._hierarchical_reordered_batch(L, lk, sizes, kind, strat, intra, rng)
        return self._flat_reordered_batch(L, lk, sizes, kind, strat, rng)

    def _flat_reordered_batch(
        self,
        L: np.ndarray,
        lk: str,
        sizes: List[float],
        kind: str,
        strat: OrderStrategy,
        rng: RngLike,
    ) -> List[LatencyReport]:
        p = L.size
        out: List[Optional[LatencyReport]] = [None] * len(sizes)
        algs = [select_allgather(p, bb, self.rd_threshold) for bb in sizes]
        groups = list(self._group_sizes([a.name for a in algs]))
        if kind == "heuristic":
            # All heuristic reorderings this size vector needs, computed
            # in one batched pass (shared fingerprinting, cache keys and
            # pool structure) instead of one reorder_ranks call each.
            needed = []
            for name, idxs in groups:
                pattern = pattern_of(algs[idxs[0]])
                if (
                    ("flat", pattern, lk, kind) not in self._reorder_cache
                    and pattern not in needed
                ):
                    needed.append(pattern)
            if needed:
                for pt, res in reorder_all(
                    L, self.distances, patterns=needed, rng=rng
                ).items():
                    self._reorder_cache[("flat", pt, lk, kind)] = res
        for name, idxs in groups:
            alg = algs[idxs[0]]
            pattern = pattern_of(alg)
            key = ("flat", pattern, lk, kind)
            res: ReorderResult = self._reorder_cache.get(key)  # type: ignore[assignment]
            if res is None:
                res = reorder_ranks(pattern, L, self.distances, kind=kind, rng=rng)
                self._reorder_cache[key] = res
            sub = [sizes[i] for i in idxs]
            sched = compiled_schedule(name, p)
            batch = self.engine.evaluate_sizes(sched, res.mapping, sub)
            inline = getattr(alg, "supports_inline_placement", False)
            strategy_name, restores = self._restore(strat, name, res.reordering, sub, inline)
            for j, i in enumerate(idxs):
                coll = float(batch.total_seconds[j])
                out[i] = LatencyReport(
                    seconds=coll + float(restores[j]),
                    algorithm=name,
                    strategy=strategy_name,
                    collective_seconds=coll,
                    restore_seconds=float(restores[j]),
                    reorder_seconds=res.total_seconds,
                    mapper=res.mapper_name,
                )
        return out  # type: ignore[return-value]

    def _hierarchical_reordered_batch(
        self,
        L: np.ndarray,
        lk: str,
        sizes: List[float],
        kind: str,
        strat: OrderStrategy,
        intra: str,
        rng: RngLike,
    ) -> List[LatencyReport]:
        G = self._node_partition(L)[1].size
        out: List[Optional[LatencyReport]] = [None] * len(sizes)
        leader_algs = [hierarchical_leader_alg(G, bb, self.rd_threshold) for bb in sizes]
        plan = []
        for leader_alg, idxs in self._group_sizes(leader_algs):
            leader_pattern = (
                "recursive-doubling" if leader_alg == "rd" else "ring"
            )
            key = ("hier", leader_pattern, intra, self.intra_heuristic, lk, kind)
            plan.append((leader_alg, idxs, leader_pattern, key))
        missing = [(pt, key) for _, _, pt, key in plan if key not in self._reorder_cache]
        if missing:
            # Every leader pattern starts from the same seed, so the intra
            # phase is identical: run it once and give each leader reorder
            # its own copy of the generator state it leaves behind.
            gen = make_rng(rng)
            per_group, intra_s = self._intra_reordering(
                L, self.groups_from_layout(L), kind, intra, gen
            )
            for leader_pattern, key in missing:
                self._reorder_cache[key] = self._leader_reordering(
                    L, per_group, kind, leader_pattern, copy.deepcopy(gen), intra_s
                )
        for leader_alg, idxs, _, key in plan:
            reordering, group_sizes, overhead = self._reorder_cache[key]  # type: ignore[misc]
            sub = [sizes[i] for i in idxs]
            # The new ranks enumerate the permuted groups, so the partition
            # is contiguous.
            sched = hierarchical_schedule(np.arange(L.size), group_sizes, leader_alg, intra)
            batch = self.engine.evaluate_sizes(sched, reordering.mapping, sub)
            strategy_name, restores = self._restore(strat, sched.name, reordering, sub)
            for j, i in enumerate(idxs):
                coll = float(batch.total_seconds[j])
                out[i] = LatencyReport(
                    seconds=coll + float(restores[j]),
                    algorithm=sched.name,
                    strategy=strategy_name,
                    collective_seconds=coll,
                    restore_seconds=float(restores[j]),
                    reorder_seconds=overhead,
                    mapper=kind,
                )
        return out  # type: ignore[return-value]

    def default_latency(
        self,
        layout: Sequence[int],
        block_bytes: float,
        hierarchical: bool = False,
        intra: str = "binomial",
    ) -> LatencyReport:
        """One-size :meth:`default_latencies`."""
        return self.default_latencies(layout, [block_bytes], hierarchical, intra)[0]

    def reordered_latency(
        self,
        layout: Sequence[int],
        block_bytes: float,
        kind: str = "heuristic",
        strategy: str = "initcomm",
        hierarchical: bool = False,
        intra: str = "binomial",
    ) -> LatencyReport:
        """One-size :meth:`reordered_latencies`."""
        return self.reordered_latencies(
            layout, [block_bytes], kind, strategy, hierarchical, intra
        )[0]

    # ------------------------------------------------------------------
    # hierarchical reordering
    # ------------------------------------------------------------------
    def _intra_mapper(self, kind: str, m: int) -> Optional[Mapper]:
        """Mapper for one node's binomial gather/bcast pattern.

        One intra-node permutation serves both tree phases (they share
        the binomial tree, only the traversal priorities differ); BGMH is
        the default because the paper attributes the intra-node gains to
        the gather phase (Fig. 4(b)), and BBMH is offered for the
        ablation.
        """
        if kind == "heuristic":
            from repro.mapping.bbmh import BBMH

            return BGMH() if self.intra_heuristic == "bgmh" else BBMH()
        graph = build_pattern("binomial-gather", m)
        return ScotchLikeMapper(graph) if kind == "scotch" else GreedyGraphMapper(graph)

    def _hierarchical_reordering(
        self, L: np.ndarray, kind: str, intra: str, leader_pattern: str, rng: RngLike
    ) -> Tuple[RankReordering, List[List[int]], float]:
        """Compose intra-node + leader reorderings into one world mapping.

        Returns the world reordering, the *new-rank* groups the schedule
        is built over, and the total mapping overhead in seconds.  The
        pipeline runs the two phases itself, so that both leader patterns
        share one intra pass; this one-pattern form is what the property
        tests and the sweep oracle call.
        """
        rng = make_rng(rng)
        per_group_cores, overhead = self._intra_reordering(
            L, self.groups_from_layout(L), kind, intra, rng
        )
        world, sizes, overhead = self._leader_reordering(
            L, per_group_cores, kind, leader_pattern, rng, overhead
        )
        ends = np.cumsum(sizes).tolist()
        return world, [list(range(end - m, end)) for end, m in zip(ends, sizes)], overhead

    def _intra_reordering(
        self,
        L: np.ndarray,
        groups_old: List[List[int]],
        kind: str,
        intra: str,
        rng: np.random.Generator,
    ) -> Tuple[List[np.ndarray], float]:
        """Each node group's cores in intra-reordered order, plus mapping seconds.

        Only binomial phases are reordered; a linear phase has no pattern
        to optimise (paper Fig. 4(c,d) commentary).  The groups of more
        than one core are mapped in group order from ``rng``: with the
        heuristic by one :meth:`~repro.mapping.base.Mapper.map_groups`
        call, with a graph mapper (whose pattern graph has the group's
        size) by one call per run of equal-sized groups.
        """
        per_group_cores = [L[np.asarray(g, dtype=np.int64)] for g in groups_old]
        if intra != "binomial":
            return per_group_cores, 0.0
        todo = [i for i, cores in enumerate(per_group_cores) if cores.size > 1]
        if kind == "heuristic":
            runs = [(self._intra_mapper(kind, 0), todo)]
        else:
            runs = [
                (self._intra_mapper(kind, m), list(run))
                for m, run in itertools.groupby(todo, key=lambda i: per_group_cores[i].size)
            ]
        t0 = time.perf_counter()
        for mapper, run in runs:
            mapped = mapper.map_groups([per_group_cores[i] for i in run], self.distances, rng)
            for i, M_g in zip(run, mapped):
                per_group_cores[i] = M_g
        return per_group_cores, time.perf_counter() - t0

    def _leader_reordering(
        self,
        L: np.ndarray,
        per_group_cores: List[np.ndarray],
        kind: str,
        leader_pattern: str,
        rng: np.random.Generator,
        overhead: float,
    ) -> Tuple[RankReordering, Tuple[int, ...], float]:
        """Reorder the leaders and stitch the world mapping.

        Returns the world reordering, the sizes of the *new-rank* groups
        (group ``j`` is the next ``sizes[j]`` new ranks) and ``overhead``,
        the intra phase's mapping seconds, plus the leader reorder's.
        """
        G = len(per_group_cores)
        sizes = np.array([cores.size for cores in per_group_cores], dtype=np.int64)
        cores = np.concatenate(per_group_cores)
        starts = np.cumsum(sizes) - sizes
        # Leader-level reordering over the (possibly new) leader cores;
        # node_perm[j] = which original group acts as leader-rank j.
        leader_cores = cores[starts]
        node_perm = np.zeros(1, dtype=np.int64)
        if G > 1:
            res = reorder_ranks(leader_pattern, leader_cores, self.distances, kind=kind, rng=rng)
            overhead += res.total_seconds
            by_core = np.argsort(leader_cores)
            node_perm = by_core[np.searchsorted(leader_cores, res.mapping, sorter=by_core)]

        # Stitch the world mapping: new ranks enumerate permuted groups, so
        # new rank r of group j is core r - new_start[j] of group node_perm[j].
        new_sizes = sizes[node_perm]
        shift = starts[node_perm] - (np.cumsum(new_sizes) - new_sizes)
        M_world = cores[np.arange(L.size) + np.repeat(shift, new_sizes)]
        return RankReordering(layout=L, mapping=M_world), tuple(new_sizes.tolist()), overhead

    # ------------------------------------------------------------------
    def improvement_pct(
        self,
        layout: Sequence[int],
        block_bytes: float,
        kind: str = "heuristic",
        strategy: str = "initcomm",
        hierarchical: bool = False,
        intra: str = "binomial",
    ) -> float:
        """Percent latency improvement over the default mapping (>0 = faster)."""
        base = self.default_latency(layout, block_bytes, hierarchical, intra)
        tuned = self.reordered_latency(
            layout, block_bytes, kind, strategy, hierarchical, intra
        )
        if base.seconds == 0.0:
            return 0.0
        return 100.0 * (base.seconds - tuned.seconds) / base.seconds
