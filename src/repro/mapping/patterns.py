"""Communication-pattern graphs for the general-purpose mappers.

The fine-tuned heuristics never materialise these ("with fine-tuned
heuristics, it is not required to build a process topology graph", paper
§V) — that is one of their advantages.  The Scotch-like and greedy
baselines *do* need an explicit weighted guest graph, which is what the
builders here provide; building it is deliberately part of the mappers'
measured overhead, as in the paper's Fig. 7(b) comparison.

Edge weights are total block-units exchanged between a rank pair over the
whole collective, which is the byte-proportional weighting both baselines
optimise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.collectives import binomial
from repro.util.bits import ceil_log2, ilog2, is_power_of_two

__all__ = ["PatternGraph", "build_pattern", "pattern_builder", "PATTERN_BUILDERS"]


@dataclass
class PatternGraph:
    """Weighted undirected communication graph over ``p`` ranks."""

    p: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if not (self.src.shape == self.dst.shape == self.weight.shape):
            raise ValueError("src/dst/weight shape mismatch")
        if self.src.size and (
            min(self.src.min(), self.dst.min()) < 0
            or max(self.src.max(), self.dst.max()) >= self.p
        ):
            raise ValueError("edge endpoint out of range")

    @property
    def n_edges(self) -> int:
        return int(self.src.size)

    def total_weight(self) -> float:
        """Total block-units exchanged over the whole collective."""
        return float(self.weight.sum())

    def adjacency(self) -> List[List[Tuple[int, float]]]:
        """Per-vertex (neighbour, weight) lists."""
        adj: List[List[Tuple[int, float]]] = [[] for _ in range(self.p)]
        for u, v, w in zip(self.src, self.dst, self.weight):
            adj[int(u)].append((int(v), float(w)))
            adj[int(v)].append((int(u), float(w)))
        return adj

    def degree_weights(self) -> np.ndarray:
        """Total incident edge weight per vertex."""
        out = np.zeros(self.p)
        np.add.at(out, self.src, self.weight)
        np.add.at(out, self.dst, self.weight)
        return out


def _from_edge_dict(p: int, edges: Dict[Tuple[int, int], float]) -> PatternGraph:
    if not edges:
        return PatternGraph(p, np.empty(0), np.empty(0), np.empty(0))
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array(list(edges.values()), dtype=np.float64)
    return PatternGraph(p, src, dst, w)


def _canon(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def recursive_doubling_pattern(p: int) -> PatternGraph:
    """Pairs ``(i, i XOR 2^s)`` weighted by the stage-s message size 2^s.

    This is the graph of the paper's Fig. 1 (with weights added).
    """
    if not is_power_of_two(p):
        raise ValueError(f"recursive doubling pattern needs power-of-two p, got {p}")
    edges: Dict[Tuple[int, int], float] = {}
    for s in range(ilog2(p)):
        dist = 1 << s
        for i in range(p):
            j = i ^ dist
            if i < j:
                edges[(i, j)] = edges.get((i, j), 0.0) + float(dist)
    return _from_edge_dict(p, edges)


def ring_pattern(p: int) -> PatternGraph:
    """Successor edges; each pair exchanges one block in each of p-1 stages."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    edges: Dict[Tuple[int, int], float] = {}
    for i in range(p):
        edges[_canon(i, (i + 1) % p)] = float(p - 1)
    return _from_edge_dict(p, edges)


def binomial_bcast_pattern(p: int) -> PatternGraph:
    """Binomial tree edges, unit weight (fixed broadcast message size)."""
    edges: Dict[Tuple[int, int], float] = {}
    for _bit, par, child in binomial.tree_edges(p):
        edges[_canon(par, child)] = 1.0
    return _from_edge_dict(p, edges)


def binomial_gather_pattern(p: int) -> PatternGraph:
    """Binomial tree edges weighted by the child's subtree size."""
    edges: Dict[Tuple[int, int], float] = {}
    for _bit, par, child in binomial.tree_edges(p):
        edges[_canon(par, child)] = float(binomial.subtree_size(child, p))
    return _from_edge_dict(p, edges)


def bruck_pattern(p: int) -> PatternGraph:
    """Bruck shift edges ``(i, i - 2^s)`` weighted by the stage send count."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    edges: Dict[Tuple[int, int], float] = {}
    for s in range(ceil_log2(p)):
        dist = 1 << s
        count = float(min(dist, p - dist))
        for i in range(p):
            key = _canon(i, (i - dist) % p)
            if key[0] != key[1]:
                edges[key] = edges.get(key, 0.0) + count
    return _from_edge_dict(p, edges)


PATTERN_BUILDERS = {
    "recursive-doubling": recursive_doubling_pattern,
    "ring": ring_pattern,
    "binomial-bcast": binomial_bcast_pattern,
    "binomial-gather": binomial_gather_pattern,
    "bruck": bruck_pattern,
}


def pattern_builder(name: str) -> Callable[[int], PatternGraph]:
    """The builder (``p -> PatternGraph``) of the named pattern graph."""
    try:
        return PATTERN_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown pattern {name!r}; known: {sorted(PATTERN_BUILDERS)}"
        )


def build_pattern(name: str, p: int) -> PatternGraph:
    """Build the named communication-pattern graph over ``p`` ranks."""
    return pattern_builder(name)(p)
