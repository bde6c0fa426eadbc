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

from typing import Iterator, Tuple

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

    def placements(self, p: int) -> Iterator[Tuple[int, int]]:
        """Tree edges in the configured traversal order (child, parent).

        Returns a materialised sequence rather than a nested generator: a
        ``yield from`` recursion would route every edge through a
        ceil(log2 p)-deep generator chain, which is measurable at p=4096.
        """
        if self.traversal == "bft":
            # Stage order: every child close to its parent, earliest
            # broadcast stages first.
            return iter(
                [
                    (child, par)
                    for edges in binomial.bcast_edges_by_stage(p)
                    for par, child in edges
                ]
            )

        # Depth-first recursion of Algorithm 4.  The tree height is
        # ceil(log2 p), so plain recursion is safe at any realistic p.
        reverse = self.traversal == "large-first"
        out: list = []

        def rec(ref_rank: int) -> None:
            kids = binomial.children(ref_rank, p)  # small subtrees first
            if reverse:
                kids = list(reversed(kids))
            for _bit, child in kids:
                out.append((child, ref_rank))
                rec(child)

        rec(0)
        return iter(out)
