"""Scotch-like general-purpose graph mapper (the paper's baseline).

Scotch [12] maps a *guest* graph (the communication pattern) onto a *host*
architecture by dual recursive bipartitioning: recursively split the guest
graph minimising edge cut while splitting the host into topologically
close halves, and assign the parts to each other.  This module implements
that flow honestly from scratch:

* the host (core set) is split by distance structure — two far-apart seed
  cores, every core joins the nearer seed's half;
* the guest is split by greedy graph growing followed by
  Kernighan-Lin-style pairwise-swap refinement;
* recursion bottoms out at singleton rank-core assignments.

Like the real Scotch, this mapper (a) must be handed an explicitly built
pattern graph (the overhead the paper's heuristics avoid), (b) knows
nothing about the pattern's stage/message-size structure beyond edge
weights, and (c) does orders of magnitude more work than the closed-form
heuristics — the three properties behind the Fig. 3-7 comparisons.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.mapping.base import Mapper, as_distance_lookup
from repro.mapping.patterns import PatternGraph
from repro.util.rng import RngLike, make_rng
from repro.util.validation import check_layout

__all__ = ["ScotchLikeMapper"]


class ScotchLikeMapper(Mapper):
    """Dual-recursive-bipartitioning mapper over an explicit pattern graph.

    Parameters
    ----------
    graph:
        The guest communication graph (see :mod:`repro.mapping.patterns`).
    refine_passes:
        KL refinement passes per bipartition level.
    """

    pattern = "*"
    name = "scotch-like"

    def __init__(self, graph: PatternGraph, refine_passes: int = 4) -> None:
        if refine_passes < 0:
            raise ValueError(f"refine_passes must be >= 0, got {refine_passes}")
        self.graph = graph
        self.refine_passes = refine_passes

    # ------------------------------------------------------------------
    def map(self, layout: Sequence[int], D: np.ndarray, rng: RngLike = 0) -> np.ndarray:
        L = check_layout(layout)
        if L.size != self.graph.p:
            raise ValueError(
                f"layout has {L.size} processes but the pattern graph has {self.graph.p}"
            )
        generator = make_rng(rng)
        M = np.full(L.size, -1, dtype=np.int64)
        adj = self.graph.adjacency()
        self._recurse(
            np.arange(L.size, dtype=np.int64), L.copy(), M, adj, as_distance_lookup(D), generator
        )
        return self._finish(M, L)

    # ------------------------------------------------------------------
    def _recurse(
        self,
        ranks: np.ndarray,
        cores: np.ndarray,
        M: np.ndarray,
        adj: List[List[Tuple[int, float]]],
        D: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        n = ranks.size
        if n == 1:
            M[ranks[0]] = cores[0]
            return
        if n == 2:
            # Trivial level: orientation is arbitrary for a 2-core host.
            M[ranks[0]] = cores[0]
            M[ranks[1]] = cores[1]
            return
        n_a = n // 2
        cores_a, cores_b = self._split_cores(cores, n_a, D)
        side = self._split_ranks(ranks, n_a, adj, rng)
        self._recurse(ranks[~side], cores_a, M, adj, D, rng)
        self._recurse(ranks[side], cores_b, M, adj, D, rng)

    # ------------------------------------------------------------------
    @staticmethod
    def _split_cores(cores: np.ndarray, n_a: int, D: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split the host cores into two topologically coherent halves.

        Seeds: the first core and the core farthest from it; every core is
        ranked by (distance-to-seed-A minus distance-to-seed-B) and the
        closest ``n_a`` to seed A form the first half.
        """
        c1 = int(cores[0])
        d1 = D[c1, cores]
        c2 = int(cores[int(np.argmax(d1))])
        score = d1 - D[c2, cores]
        order = np.argsort(score, kind="stable")
        return cores[order[:n_a]], cores[order[n_a:]]

    # ------------------------------------------------------------------
    def _split_ranks(
        self,
        ranks: np.ndarray,
        n_a: int,
        adj: List[List[Tuple[int, float]]],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Bipartition the induced guest subgraph, minimising edge cut.

        Returns a boolean array over ``ranks``: False = part A (size
        ``n_a``), True = part B.
        """
        n = ranks.size
        local = {int(r): i for i, r in enumerate(ranks)}
        # Induced weighted adjacency in local indices.
        ladj: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        for i, r in enumerate(ranks):
            for nb, w in adj[int(r)]:
                j = local.get(nb)
                if j is not None:
                    ladj[i].append((j, w))

        side = self._grow_initial(n, n_a, ladj)
        for _ in range(self.refine_passes):
            if not self._kl_pass(side, ladj, rng):
                break
        return side

    @staticmethod
    def _grow_initial(n: int, n_a: int, ladj: List[List[Tuple[int, float]]]) -> np.ndarray:
        """Greedy graph growing: grow part A from vertex 0 by max connection."""
        side = np.ones(n, dtype=bool)  # True = B
        conn = np.zeros(n)
        in_a = np.zeros(n, dtype=bool)
        frontier_pick = 0
        for _ in range(n_a):
            in_a[frontier_pick] = True
            side[frontier_pick] = False
            conn[frontier_pick] = -np.inf
            for nb, w in ladj[frontier_pick]:
                if not in_a[nb]:
                    conn[nb] += w
            nxt = int(np.argmax(conn))
            if conn[nxt] == -np.inf:  # pragma: no cover - n_a == n guard
                break
            if conn[nxt] <= 0.0:
                # Disconnected remainder: take the lowest unassigned vertex.
                unassigned = np.flatnonzero(~in_a & (conn > -np.inf))
                if unassigned.size == 0:
                    break
                nxt = int(unassigned[0])
            frontier_pick = nxt
        return side

    @staticmethod
    def _kl_pass(
        side: np.ndarray, ladj: List[List[Tuple[int, float]]], rng: np.random.Generator
    ) -> bool:
        """One Kernighan-Lin pairwise-swap pass; True if anything improved."""
        n = side.size
        # D(v) = external - internal incident weight.
        dval = np.zeros(n)
        for v in range(n):
            for nb, w in ladj[v]:
                dval[v] += w if side[nb] != side[v] else -w
        improved = False
        max_swaps = max(1, n // 4)
        for _ in range(max_swaps):
            a_idx = np.flatnonzero(~side)
            b_idx = np.flatnonzero(side)
            if a_idx.size == 0 or b_idx.size == 0:
                break
            u = int(a_idx[int(np.argmax(dval[a_idx]))])
            v = int(b_idx[int(np.argmax(dval[b_idx]))])
            w_uv = 0.0
            for nb, w in ladj[u]:
                if nb == v:
                    w_uv += w
            gain = dval[u] + dval[v] - 2.0 * w_uv
            if gain <= 1e-12:
                break
            # Swap u and v across the cut and update D values locally.
            side[u], side[v] = True, False
            improved = True
            for x in (u, v):
                dval[x] = 0.0
                for nb, w in ladj[x]:
                    dval[x] += w if side[nb] != side[x] else -w
            for nb, w in ladj[u]:
                if nb not in (u, v):
                    dval[nb] += 2.0 * w if side[nb] != side[u] else -2.0 * w
            for nb, w in ladj[v]:
                if nb not in (u, v):
                    dval[nb] += 2.0 * w if side[nb] != side[v] else -2.0 * w
        return improved
