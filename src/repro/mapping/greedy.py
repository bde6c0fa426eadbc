"""Hoefler-Snir-style greedy graph mapper (second general baseline).

The greedy construction heuristic of Hoefler & Snir [3], which the paper
cites as the rationale behind BGMH (§V-A4): repeatedly take the unmapped
rank with the heaviest connection to the already-mapped set and place it
on the free core minimising the weighted sum of distances to its mapped
neighbours.  Unlike BGMH it needs the explicit pattern graph and a global
argmax per step — pattern-agnostic but more expensive.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.mapping.base import Mapper, as_distance_lookup
from repro.mapping.patterns import PatternGraph
from repro.util.rng import RngLike, make_rng
from repro.util.validation import check_layout

__all__ = ["GreedyGraphMapper"]


class GreedyGraphMapper(Mapper):
    """Greedy heaviest-connection graph mapping."""

    pattern = "*"
    name = "greedy-graph"

    def __init__(self, graph: PatternGraph) -> None:
        self.graph = graph

    def map(self, layout: Sequence[int], D: np.ndarray, rng: RngLike = 0) -> np.ndarray:
        L = check_layout(layout)
        if L.size != self.graph.p:
            raise ValueError(
                f"layout has {L.size} processes but the pattern graph has {self.graph.p}"
            )
        D = as_distance_lookup(D)  # dense matrix or implicit row backend
        p = L.size
        adj = self.graph.adjacency()
        generator = make_rng(rng)

        M = np.full(p, -1, dtype=np.int64)
        M[0] = L[0]
        mapped = np.zeros(p, dtype=bool)
        mapped[0] = True
        free = np.ones(p, dtype=bool)           # over layout positions
        core_pos = {int(c): i for i, c in enumerate(L)}
        free[core_pos[int(L[0])]] = False

        # weight of each unmapped rank towards the mapped set
        pull = np.zeros(p)
        for nb, w in adj[0]:
            pull[nb] += w

        for _ in range(p - 1):
            candidates = np.flatnonzero(~mapped)
            strongest = candidates[pull[candidates] == pull[candidates].max()]
            nxt = int(strongest[0])

            free_cores = L[free]
            score = np.zeros(free_cores.size)
            for nb, w in adj[nxt]:
                if mapped[nb]:
                    score += w * D[int(M[nb]), free_cores]
            best = free_cores[score == score.min()]
            core = int(best[generator.integers(best.size)])

            M[nxt] = core
            mapped[nxt] = True
            free[core_pos[core]] = False
            for nb, w in adj[nxt]:
                if not mapped[nb]:
                    pull[nb] += w
        return self._finish(M, L)
