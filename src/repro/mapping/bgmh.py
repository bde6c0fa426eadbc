"""BGMH — mapping heuristic for binomial gather (paper Algorithm 5).

In a binomial gather the message over an edge equals the child's whole
subtree, so edge weights grow toward the root.  BGMH therefore picks the
*heaviest remaining edge* each time and maps its unmapped endpoint next to
the mapped one — the same rationale as Hoefler & Snir's general greedy
mapper, but with the edge order derived in closed form from the tree
structure instead of a process-topology graph (paper §V-A4).

Concretely: for ``i = p/2, p/4, ..., 1`` and every already-placed
reference ``r`` with ``r + i < p``, place rank ``r + i`` as close as
possible to ``r``; every new placement joins the reference set.  The
reference set is snapshotted per ``i`` so a rank placed at step ``i``
first becomes a reference at the next (smaller) ``i`` — exactly the
binomial-tree edges.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.mapping.base import GreedyPlacementMapper
from repro.util.bits import ceil_log2

__all__ = ["BGMH"]


class BGMH(GreedyPlacementMapper):
    """Binomial-gather mapping heuristic; valid for any process count."""

    pattern = "binomial-gather"
    name = "bgmh"

    def program(self, p: int) -> Tuple[List[int], List[int]]:
        """Binomial-tree edges by decreasing weight (``i``), refs snapshotted.

        Each ``i`` places the snapshot's references plus ``i`` that fall
        below ``p``, in snapshot order: a few array operations per level.
        """
        if p == 1:
            return [], []
        refs = np.zeros(1, dtype=np.int64)  # the set V of potential reference ranks
        new_levels, ref_levels = [], []
        i = 1 << (ceil_log2(p) - 1)
        while i > 0:
            kept = refs[refs < p - i]
            ref_levels.append(kept)
            new_levels.append(kept + i)
            refs = np.concatenate((refs, new_levels[-1]))  # new ranks join at the next i
            i //= 2
        return np.concatenate(new_levels).tolist(), np.concatenate(ref_levels).tolist()
