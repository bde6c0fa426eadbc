"""Exhaustive optimal mapper for miniature instances.

Topology mapping is NP-hard in general; at miniature scale it is merely
expensive, and an exact optimum is a useful yardstick: how much quality
do the paper's greedy single-pass heuristics actually leave on the
table?  This mapper enumerates all assignments (rank 0 pinned, matching
the heuristics' contract) with branch-and-bound pruning on partial
hop-bytes, minimising the same objective the metrics module measures.

Practical limit is around ``p = 10`` (9! = 362 880 leaves before
pruning); the constructor enforces it.  Used by the optimality-gap tests
and the ``bench_ablation_optimality`` bench.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.mapping.base import Mapper
from repro.mapping.patterns import PatternGraph
from repro.util.rng import RngLike
from repro.util.validation import check_layout

__all__ = ["OptimalMapper", "MAX_OPTIMAL_P"]

#: Largest instance the exhaustive search accepts.
MAX_OPTIMAL_P = 10


class OptimalMapper(Mapper):
    """Branch-and-bound exact hop-bytes minimiser (tiny ``p`` only)."""

    pattern = "*"
    name = "optimal"

    def __init__(self, graph: PatternGraph) -> None:
        if graph.p > MAX_OPTIMAL_P:
            raise ValueError(
                f"exhaustive search supports p <= {MAX_OPTIMAL_P}, got {graph.p}"
            )
        self.graph = graph
        self._adj = graph.adjacency()

    def map(self, layout: Sequence[int], D: np.ndarray, rng: RngLike = 0) -> np.ndarray:
        """Find the hop-bytes-optimal assignment with rank 0 pinned."""
        L = check_layout(layout)
        p = L.size
        if p != self.graph.p:
            raise ValueError(
                f"layout has {p} processes but the pattern graph has {self.graph.p}"
            )
        D = np.asarray(D, dtype=np.float64)

        best_cost = np.inf
        best: List[int] = []
        M = np.full(p, -1, dtype=np.int64)
        M[0] = L[0]
        used = {int(L[0])}
        cores = [int(c) for c in L]

        def incremental(rank: int, core: int) -> float:
            """Hop-bytes of rank's edges to already-placed neighbours."""
            total = 0.0
            for nb, w in self._adj[rank]:
                if M[nb] >= 0:
                    total += w * D[core, M[nb]]
            return total

        def search(rank: int, cost: float) -> None:
            nonlocal best_cost, best
            if cost >= best_cost:
                return  # prune: partial cost already worse
            if rank == p:
                best_cost = cost
                best = M.tolist()
                return
            for core in cores:
                if core in used:
                    continue
                delta = incremental(rank, core)
                if cost + delta >= best_cost:
                    continue
                M[rank] = core
                used.add(core)
                search(rank + 1, cost + delta)
                used.discard(core)
                M[rank] = -1

        search(1, 0.0)
        if not best:  # pragma: no cover - p == 1
            best = M.tolist()
        return self._finish(np.asarray(best, dtype=np.int64), L)

    def optimal_cost(self, layout: Sequence[int], D: np.ndarray) -> float:
        """Hop-bytes of the optimal assignment (convenience)."""
        from repro.mapping.metrics import hop_bytes

        return hop_bytes(self.graph, self.map(layout, D), np.asarray(D))
