"""Placement programs against the generators they replaced.

Each heuristic's ``program(p)`` returns two int lists, new ranks and
their references.  The generators below yielded the same steps as
``(new_rank, ref_rank)`` pairs, one at a time, and are kept here as the
oracles: every list must equal its generator step for step, so every
placement, tie-break draw and generator end state stays what it was.
"""

import numpy as np
import pytest

from repro.collectives import binomial
from repro.mapping.base import GreedyPlacementMapper, HierarchicalFreePool
from repro.mapping.bbmh import BBMH
from repro.mapping.bgmh import BGMH
from repro.mapping.bruckmh import BruckMH
from repro.mapping.rdmh import RDMH
from repro.mapping.rmh import RMH
from repro.topology.gpc import gpc_cluster
from repro.util.bits import ceil_log2

# ----------------------------------------------------------------------
# Oracles: the generators the programs replaced
# ----------------------------------------------------------------------


def rmh_placements(p):
    for ref in range(p - 1):
        yield ref + 1, ref


def bbmh_placements(p, traversal):
    if traversal == "bft":
        for edges in binomial.bcast_edges_by_stage(p):
            for par, child in edges:
                yield child, par
        return
    reverse = traversal == "large-first"
    out = []

    def rec(ref_rank):
        kids = binomial.children(ref_rank, p)  # small subtrees first
        if reverse:
            kids = list(reversed(kids))
        for _bit, child in kids:
            out.append((child, ref_rank))
            rec(child)

    rec(0)
    yield from out


def bgmh_placements(p):
    if p == 1:
        return
    refs = [0]
    i = 1 << (ceil_log2(p) - 1)
    while i > 0:
        for ref in list(refs):  # snapshot: new placements join at the next i
            new_rank = ref + i
            if new_rank >= p:
                continue
            yield new_rank, ref
            refs.append(new_rank)
        i //= 2


def _rdmh_rewind(mapped_order, mapped, p):
    for r in reversed(mapped_order):
        i = p // 2
        while i >= 1:
            if not mapped[r ^ i]:
                return r
            i //= 2
    raise RuntimeError("no rank with unmapped partners, yet ranks remain")


def rdmh_placements(p, update_after):
    if p == 1:
        return
    mapped = [False] * p
    mapped[0] = True
    mapped_order = [0]
    ref = 0
    i = p // 2
    placed_for_ref = 0
    n_mapped = 1
    while n_mapped < p:
        while i >= 1 and mapped[ref ^ i]:
            i //= 2
        if i < 1:
            ref = _rdmh_rewind(mapped_order, mapped, p)
            i = p // 2
            placed_for_ref = 0
            continue
        new_rank = ref ^ i
        yield new_rank, ref
        mapped[new_rank] = True
        mapped_order.append(new_rank)
        n_mapped += 1
        placed_for_ref += 1
        if placed_for_ref >= update_after:
            ref = new_rank
            i = p // 2
            placed_for_ref = 0


def bruckmh_placements(p, update_after):
    if p == 1:
        return
    nst = ceil_log2(p)
    seq_len = 2 * nst
    mapped = [False] * p
    mapped[0] = True
    mapped_order = [0]
    cursors = {}

    def first_unmapped(ref):
        i = cursors.get(ref, 0)
        while i < seq_len:
            dist = 1 << (nst - 1 - (i >> 1))
            cand = (ref + dist) % p if (i & 1) == 0 else (ref - dist) % p
            if not mapped[cand] and cand != ref:
                cursors[ref] = i
                return cand
            i += 1
        cursors[ref] = i
        return None

    ref = 0
    placed_for_ref = 0
    n_mapped = 1
    while n_mapped < p:
        new_rank = first_unmapped(ref)
        if new_rank is None:
            for r in reversed(mapped_order):
                new_rank = first_unmapped(r)
                if new_rank is not None:
                    ref = r
                    break
            else:
                raise RuntimeError("no rank with unmapped partners, yet ranks remain")
            placed_for_ref = 0
        yield new_rank, ref
        mapped[new_rank] = True
        mapped_order.append(new_rank)
        n_mapped += 1
        placed_for_ref += 1
        if placed_for_ref >= update_after:
            ref = new_rank
            placed_for_ref = 0


# ----------------------------------------------------------------------
# Programs == oracles
# ----------------------------------------------------------------------

ANY_P = list(range(1, 258)) + [1000, 1024, 4096, 4097, 16384]
POW2_P = [1 << k for k in range(15)]  # 1 .. 16384

CASES = [
    (RMH(), rmh_placements, ANY_P),
    (BGMH(), bgmh_placements, ANY_P),
    *[(BBMH(traversal=t), lambda p, t=t: bbmh_placements(p, t), ANY_P)
      for t in ("small-first", "large-first", "bft")],
    *[(RDMH(update_after=u), lambda p, u=u: rdmh_placements(p, u), POW2_P) for u in (1, 2, 4)],
    *[(BruckMH(update_after=u), lambda p, u=u: bruckmh_placements(p, u), ANY_P)
      for u in (1, 2, 4)],
]


def _case_id(case):
    mapper = case[0]
    param = getattr(mapper, "traversal", None) or getattr(mapper, "update_after", None)
    return mapper.name if param is None else f"{mapper.name}-{param}"


@pytest.mark.parametrize("mapper, oracle, ps", CASES, ids=[_case_id(c) for c in CASES])
def test_program_equals_oracle(mapper, oracle, ps):
    for p in ps:
        new, ref = mapper.program(p)
        assert type(new) is list and type(ref) is list
        assert all(type(x) is int for x in new + ref), p
        steps = list(oracle(p))
        assert new == [n for n, _ in steps], p
        assert ref == [r for _, r in steps], p


# ----------------------------------------------------------------------
# A program that leaves a rank unplaced
# ----------------------------------------------------------------------


class _Gappy(GreedyPlacementMapper):
    """The ring chain minus its last step: rank ``p - 1`` is never placed."""

    name = "gappy"

    def program(self, p):
        new, ref = RMH().program(p)
        return new[:-1], ref[:-1]


@pytest.mark.parametrize("n_nodes", [4, 16], ids=["scalar-draws", "bulk-draws"])
def test_unplaced_rank_is_refused(n_nodes):
    """A gap in the walk raises; ``cores[P]`` would read the last core."""
    cluster = gpc_cluster(n_nodes=n_nodes)
    D = cluster.implicit_distances()
    cores = np.arange(cluster.n_cores)
    assert (cores.size > HierarchicalFreePool._SCAN_THRESHOLD) == (n_nodes == 16)
    with pytest.raises(RuntimeError, match="unmapped"):
        _Gappy().map(cores, D, rng=0)
    groups = [cores[n * 8 : n * 8 + 8] for n in range(n_nodes)]
    with pytest.raises(RuntimeError, match="unmapped"):
        _Gappy().map_groups(groups, D, rng=0)
    # the dense matrix runs CorePool, which refuses it as before
    with pytest.raises(RuntimeError, match="unmapped"):
        _Gappy().map(cores, cluster.distance_matrix(), rng=0)
