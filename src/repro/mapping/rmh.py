"""RMH — mapping heuristic for the ring (paper Algorithm 3).

In the ring every rank talks to exactly one fixed successor in all
``p - 1`` stages, so the heuristic is a simple chain: map rank 1 as close
as possible to rank 0, rank 2 as close as possible to rank 1, and so on,
updating the reference at every step.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.mapping.base import GreedyPlacementMapper

__all__ = ["RMH"]


class RMH(GreedyPlacementMapper):
    """Ring mapping heuristic; valid for any process count."""

    pattern = "ring"
    name = "rmh"

    def program(self, p: int) -> Tuple[List[int], List[int]]:
        """The chain: each rank placed next to its ring predecessor."""
        return list(range(1, p)), list(range(p - 1))
