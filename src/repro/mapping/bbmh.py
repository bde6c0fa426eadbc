"""BBMH — mapping heuristic for binomial broadcast (paper Algorithm 4).

Broadcast messages have a fixed size, so only the traversal order matters.
The paper evaluates a depth-first traversal that visits *smaller subtrees
first*: the number of concurrent pair-wise transfers doubles every
broadcast stage, so later-stage (small-subtree) edges are the
contention-prone ones and deserve the close placements.  Each node is
mapped as close as possible to its tree parent, and the recursion makes
every fresh placement the reference for its own subtree.

``traversal`` selects between the paper's pick and the two alternatives
discussed in §V-A3, for the ablation bench:

* ``"small-first"`` — the paper's choice (Algorithm 4 exactly);
* ``"large-first"`` — visit big subtrees first (the rationale of
  Subramoni et al. [10]: prioritise ranks many others depend on);
* ``"bft"`` — breadth-first by broadcast stage.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.collectives import binomial
from repro.mapping.base import GreedyPlacementMapper

__all__ = ["BBMH"]

_TRAVERSALS = ("small-first", "large-first", "bft")


class BBMH(GreedyPlacementMapper):
    """Binomial-broadcast mapping heuristic; valid for any process count."""

    pattern = "binomial-bcast"
    name = "bbmh"

    def __init__(self, traversal: str = "small-first", tie_break: str = "random") -> None:
        if traversal not in _TRAVERSALS:
            raise ValueError(f"traversal must be one of {_TRAVERSALS}, got {traversal!r}")
        super().__init__(tie_break=tie_break)
        self.traversal = traversal

    def program(self, p: int) -> Tuple[List[int], List[int]]:
        """Tree edges in the configured traversal order: (children, parents).

        The paper's depth-first walk that visits smaller subtrees first is
        rank order, each rank next to its parent ``r & (r - 1)``.
        """
        if self.traversal == "small-first":
            new = list(range(1, p))
            return new, [r & (r - 1) for r in new]
        children: List[int] = []
        parents: List[int] = []
        if self.traversal == "bft":
            # Stage order: every child close to its parent, earliest
            # broadcast stages first.
            for edges in binomial.bcast_edges_by_stage(p):
                for par, child in edges:
                    children.append(child)
                    parents.append(par)
            return children, parents

        # Depth-first recursion of Algorithm 4, larger subtrees first.  The
        # tree height is ceil(log2 p), so plain recursion is safe at any
        # realistic p.
        def rec(ref_rank: int) -> None:
            for _bit, child in reversed(binomial.children(ref_rank, p)):
                children.append(child)
                parents.append(ref_rank)
                rec(child)

        rec(0)
        return children, parents
