"""BruckMH — mapping heuristic for the Bruck allgather pattern.

The paper's §VII names extending the heuristics to Bruck as future work;
this is that extension, built on the same Algorithm-1 scheme.  Bruck's
stage-``s`` exchange pairs rank ``r`` with ``(r ± 2^s) mod p`` and its
send count doubles with ``s`` (capped near the end for non-power-of-two
sizes), so — exactly like RDMH — the heuristic prioritises the partners
of the *latest* stages and promotes the reference after two placements.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Tuple

from repro.mapping.base import GreedyPlacementMapper
from repro.util.bits import ceil_log2

__all__ = ["BruckMH"]


class BruckMH(GreedyPlacementMapper):
    """Bruck-pattern mapping heuristic; valid for any process count."""

    pattern = "bruck"
    name = "bruckmh"

    def __init__(self, update_after: int = 2, tie_break: str = "random") -> None:
        if update_after < 1:
            raise ValueError(f"update_after must be >= 1, got {update_after}")
        super().__init__(tie_break=tie_break)
        self.update_after = update_after

    def program(self, p: int) -> Tuple[List[int], List[int]]:
        """Latest-stage partners first, reference promoted every two placements.

        Partner scans resume from a per-reference cursor: ``mapped`` only
        ever grows, so every candidate before the previous hit stays
        mapped and never needs re-checking — the total scan work is
        linear in the scan sequence length instead of quadratic.
        """
        news: List[int] = []
        refs: List[int] = []
        if p == 1:
            return news, refs
        # Candidate offsets in decreasing-stage order (+2^s then -2^s),
        # mod p; none is 0, since 2^s < p.
        offsets: List[int] = []
        for s in range(ceil_log2(p) - 1, -1, -1):
            offsets += [(1 << s) % p, -(1 << s) % p]
        n_offsets = len(offsets)
        mapped = [False] * p
        mapped[0] = True
        cursors = [0] * p

        def first_unmapped(ref: int) -> Optional[int]:
            i = cursors[ref]
            while i < n_offsets:
                cand = ref + offsets[i]
                if cand >= p:
                    cand -= p
                if not mapped[cand]:
                    cursors[ref] = i
                    return cand
                i += 1
            cursors[ref] = i
            return None

        ref = 0
        placed_for_ref = 0
        for _ in range(p - 1):
            new_rank = first_unmapped(ref)
            if new_rank is None:
                # the newest placement that still has an unmapped partner
                for r in chain(reversed(news), (0,)):
                    new_rank = first_unmapped(r)
                    if new_rank is not None:
                        ref = r
                        break
                else:
                    # Fully disconnected leftovers cannot happen (the shift
                    # graph is connected), but keep a hard failure just in case.
                    raise RuntimeError("no rank with unmapped partners, yet ranks remain")
                placed_for_ref = 0
            news.append(new_rank)
            refs.append(ref)
            mapped[new_rank] = True
            placed_for_ref += 1
            if placed_for_ref >= self.update_after:
                ref = new_rank
                placed_for_ref = 0
        return news, refs
