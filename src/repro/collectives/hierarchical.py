"""Hierarchical (leader-based) allgather (paper §II).

Three phases over node groups:

1. **gather** — every node's processes gather their blocks into the node
   leader (binomial tree or linear, the paper's NL / L variants);
2. **exchange** — the leaders run a recursive-doubling or ring allgather
   of the per-node slices;
3. **broadcast** — each leader broadcasts the full vector to its node
   (binomial or linear).

The group structure (which ranks share a node) comes from the physical
layout, so it is a constructor argument rather than something derived from
rank arithmetic; rank reordering for the hierarchical case permutes ranks
*within* groups and permutes the *leader order*, never the group
membership (paper §VI-A2: reordering "is applied to node-leaders and local
processes separately").
"""

from __future__ import annotations

import functools
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.collectives import binomial
from repro.collectives.allgather_rd import rd_blocks_owned
from repro.collectives.schedule import CollectiveAlgorithm, Schedule, Stage
from repro.util.bits import ilog2, is_power_of_two

__all__ = ["HierarchicalAllgather", "contiguous_groups"]


def contiguous_groups(p: int, group_size: int) -> List[List[int]]:
    """Equal contiguous rank groups (the block-mapped node layout)."""
    if p % group_size:
        raise ValueError(f"p={p} not divisible by group size {group_size}")
    return [list(range(g * group_size, (g + 1) * group_size)) for g in range(p // group_size)]


#: One stage's (src, dst, units) message arrays.
_Edges = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _stage_from_triples(
    msgs: List[Tuple[int, int, int]], blocks: List[Tuple[int, ...]], label: str
) -> Stage:
    """Build a stage from (src, dst, units) triples and their blocks."""
    src = np.array([m[0] for m in msgs], dtype=np.int64)
    dst = np.array([m[1] for m in msgs], dtype=np.int64)
    units = np.array([m[2] for m in msgs], dtype=np.float64)
    return Stage(src=src, dst=dst, units=units, blocks=blocks, label=label)


class HierarchicalAllgather(CollectiveAlgorithm):
    """Leader-based allgather over explicit node groups.

    Parameters
    ----------
    groups:
        Partition of ``range(p)``; ``groups[g][0]`` is the leader of group
        ``g``, and the leader-phase rank of group ``g`` is ``g`` itself —
        so permuting the *order of the lists* is exactly leader-level rank
        reordering, and permuting *within* a list is intra-node reordering.
    leader_alg:
        ``"rd"`` (power-of-two group count) or ``"ring"``.
    intra:
        ``"binomial"`` (the paper's non-linear NL variant) or ``"linear"``.

    The groups (lists or int arrays) are held flat, as one int64 rank
    array and the group sizes, the form :meth:`from_partition` takes;
    the lists of :attr:`groups` are built only for the :meth:`stages` view.
    """

    name = "hierarchical"  # lint: unregistered-ok (reordered per phase, not via _PATTERNS)

    def __init__(
        self,
        groups: Sequence[Sequence[int]],
        leader_alg: str = "rd",
        intra: str = "binomial",
    ) -> None:
        arrays = [np.asarray(g, dtype=np.int64) for g in groups]
        flat = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        self._partition(flat, [a.size for a in arrays], leader_alg, intra)

    @classmethod
    def from_partition(
        cls, ranks: np.ndarray, sizes: Sequence[int], leader_alg: str = "rd", intra: str = "binomial"
    ) -> "HierarchicalAllgather":
        """The algorithm whose group ``g`` is the next ``sizes[g]`` of ``ranks``."""
        alg = cls.__new__(cls)
        alg._partition(ranks, sizes, leader_alg, intra)
        return alg

    def _partition(self, ranks, sizes, leader_alg: str, intra: str) -> None:
        """Validate and keep the flat partition (one sort checks it)."""
        if leader_alg not in ("rd", "ring"):
            raise ValueError(f"leader_alg must be 'rd' or 'ring', got {leader_alg!r}")
        if intra not in ("binomial", "linear"):
            raise ValueError(f"intra must be 'binomial' or 'linear', got {intra!r}")
        self._sizes = np.array(sizes, dtype=np.int64)
        if np.any(self._sizes < 1):
            raise ValueError("empty group")
        self._ranks = np.array(ranks, dtype=np.int64)
        self.p = int(self._ranks.size)
        if not np.array_equal(np.sort(self._ranks), np.arange(self._sizes.sum())):
            raise ValueError("groups must partition range(p)")
        if leader_alg == "rd" and not is_power_of_two(self._sizes.size):
            raise ValueError(
                f"rd leader exchange requires a power-of-two group count, got {self._sizes.size}"
            )
        self._starts = np.cumsum(self._sizes) - self._sizes
        self.leader_alg = leader_alg
        self.intra = intra
        # linear intra phases serialise several transfers on the leader
        self.multi_port_stages = intra == "linear"
        self.name = f"hierarchical[{leader_alg},{intra}]"

    # ------------------------------------------------------------------
    @functools.cached_property
    def groups(self) -> List[List[int]]:
        """The partition as rank lists (built on first use)."""
        flat = self._ranks.tolist()
        ends = np.cumsum(self._sizes).tolist()
        return [flat[a:b] for a, b in zip(self._starts.tolist(), ends)]

    @property
    def leaders(self) -> List[int]:
        return self._ranks[self._starts].tolist()

    def _check_p(self, p: int) -> None:
        if p != self.p:
            raise ValueError(f"schedule built for p={self.p}, asked for p={p}")

    # ------------------------------------------------------------------
    # phase 1: intra-group gather
    # ------------------------------------------------------------------
    def _gather_stages(self) -> Iterator[Stage]:
        if self.intra == "linear":
            msgs: List[Tuple[int, int, int]] = []
            blocks: List[Tuple[int, ...]] = []
            for g in self.groups:
                root = g[0]
                for r in g[1:]:
                    msgs.append((r, root, 1))
                    blocks.append((r,))
            if msgs:
                yield _stage_from_triples(msgs, blocks, "hier:gather")
            return
        # Binomial: merge the stage-s edges of every group into one stage.
        per_group = [binomial.gather_edges_by_stage(len(g)) for g in self.groups]
        max_stages = max((len(st) for st in per_group), default=0)
        for s in range(max_stages):
            msgs = []
            blocks = []
            for g, group_stages in zip(self.groups, per_group):
                if s < len(group_stages):
                    m = len(g)
                    for child, par in group_stages[s]:
                        sub = binomial.subtree_range(child, m)
                        msgs.append((g[child], g[par], len(sub)))
                        blocks.append(tuple(g[x] for x in sub))
            if msgs:
                yield _stage_from_triples(msgs, blocks, f"hier:gather{s}")

    # ------------------------------------------------------------------
    # phase 2: leader exchange
    # ------------------------------------------------------------------
    def _leader_stages(self) -> Iterator[Stage]:
        G = len(self.groups)
        if G < 2:
            return
        leaders = self.leaders
        if self.leader_alg == "rd":
            for s in range(ilog2(G)):
                dist = 1 << s
                msgs = []
                blocks = []
                for i in range(G):
                    owned_groups = rd_blocks_owned(i, s)
                    units = sum(len(self.groups[grp]) for grp in owned_groups)
                    msgs.append((leaders[i], leaders[i ^ dist], units))
                    blk: Tuple[int, ...] = ()
                    for grp in owned_groups:
                        blk += tuple(self.groups[grp])
                    blocks.append(blk)
                yield _stage_from_triples(msgs, blocks, f"hier:leaders-rd{s}")
        else:
            for t in range(G - 1):
                msgs = []
                blocks = []
                for i in range(G):
                    grp = (i - t) % G
                    msgs.append((leaders[i], leaders[(i + 1) % G], len(self.groups[grp])))
                    blocks.append(tuple(self.groups[grp]))
                yield _stage_from_triples(msgs, blocks, f"hier:leaders-ring{t}")

    # ------------------------------------------------------------------
    # phase 3: intra-group broadcast of the full vector
    # ------------------------------------------------------------------
    def _bcast_stages(self) -> Iterator[Stage]:
        payload = tuple(range(self.p))
        if self.intra == "linear":
            msgs = []
            for g in self.groups:
                root = g[0]
                msgs.extend((root, r, self.p) for r in g[1:])
            if msgs:
                yield _stage_from_triples(msgs, [payload] * len(msgs), "hier:bcast")
            return
        per_group = [binomial.bcast_edges_by_stage(len(g)) for g in self.groups]
        max_stages = max((len(st) for st in per_group), default=0)
        for s in range(max_stages):
            msgs = []
            for g, group_stages in zip(self.groups, per_group):
                if s < len(group_stages):
                    msgs.extend((g[par], g[child], self.p) for par, child in group_stages[s])
            if msgs:
                yield _stage_from_triples(msgs, [payload] * len(msgs), f"hier:bcast{s}")

    # ------------------------------------------------------------------
    def stages(self, p: int) -> Iterator[Stage]:
        self._check_p(p)
        yield from self._gather_stages()
        yield from self._leader_stages()
        yield from self._bcast_stages()

    # ------------------------------------------------------------------
    # timing view: the same messages as stages(), built array-wise
    # ------------------------------------------------------------------
    def _tree_edges(self, m: int, gather: bool) -> List[_Edges]:
        """Per-stage (src, dst, units) of one size-``m`` group, group-local.

        Local index 0 is the group's leader; an empty list means a group of
        this size sends nothing in the phase.
        """
        if self.intra == "linear":
            if m == 1:
                return []
            others = np.arange(1, m, dtype=np.int64)
            root = np.zeros(m - 1, dtype=np.int64)
            if gather:
                return [(others, root, np.ones(m - 1))]
            return [(root, others, np.full(m - 1, float(self.p)))]
        out = []
        if gather:
            for edges in binomial.gather_edges_by_stage(m):
                child, par = (np.array(x, dtype=np.int64) for x in zip(*edges))
                sub = [float(binomial.subtree_size(int(c), m)) for c in child]
                out.append((child, par, np.array(sub)))
        else:
            for edges in binomial.bcast_edges_by_stage(m):
                par, child = (np.array(x, dtype=np.int64) for x in zip(*edges))
                out.append((par, child, np.full(par.size, float(self.p))))
        return out

    def _intra_schedule(self, gather: bool) -> List[Stage]:
        """Gather (or broadcast) stages with each group size's tree built once.

        Stage ``s`` holds every group's stage-``s`` edges, groups in order
        and each group's edges in tree order — the message order of
        :meth:`stages`.  Per distinct size the edges are broadcast over a
        (groups, edges) array of flat positions; a stable sort on the
        group index then interleaves the sizes back into group order.
        """
        flat, sizes, offsets = self._ranks, self._sizes, self._starts
        # (group indices, tree) per distinct size, sizes ascending
        by_size = [
            (np.flatnonzero(sizes == m), self._tree_edges(m, gather))
            for m in np.unique(sizes).tolist()
        ]
        n_stages = max(len(tree) for _, tree in by_size)
        phase = "gather" if gather else "bcast"
        stages = []
        for s in range(n_stages):
            gid, src, dst, units = [], [], [], []
            for grp, tree in by_size:
                if s >= len(tree):
                    continue
                ls, ld, lu = tree[s]
                base = offsets[grp][:, None]
                gid.append(np.repeat(grp, ls.size))
                src.append((base + ls).ravel())
                dst.append((base + ld).ravel())
                units.append(np.tile(lu, grp.size))
            order = np.argsort(np.concatenate(gid), kind="stable")
            label = f"hier:{phase}" if self.intra == "linear" else f"hier:{phase}{s}"
            stages.append(
                Stage(
                    src=flat[np.concatenate(src)[order]],
                    dst=flat[np.concatenate(dst)[order]],
                    units=np.concatenate(units)[order],
                    label=label,
                )
            )
        return stages

    def _leader_schedule(self) -> List[Stage]:
        """Leader-exchange stages; the ring compresses when groups are uniform."""
        G = self._sizes.size
        if G < 2:
            return []
        leaders = self._ranks[self._starts]
        sizes = self._sizes.astype(np.float64)
        if self.leader_alg == "rd":
            # Leader i owns groups [base, base + 2**s) entering stage s,
            # base = i with its low s bits cleared (rd_blocks_owned).
            prefix = np.concatenate(([0.0], np.cumsum(sizes)))
            idx = np.arange(G, dtype=np.int64)
            stages = []
            for s in range(ilog2(G)):
                dist = 1 << s
                base = idx & ~(dist - 1)
                stages.append(
                    Stage(
                        src=leaders,
                        dst=leaders[idx ^ dist],
                        units=prefix[base + dist] - prefix[base],
                        label=f"hier:leaders-rd{s}",
                    )
                )
            return stages
        nxt = np.roll(leaders, -1)
        if np.all(sizes == sizes[0]):
            return [
                Stage(
                    src=leaders,
                    dst=nxt,
                    units=np.full(G, sizes[0]),
                    repeat=G - 1,
                    label="hier:leaders-ring*",
                )
            ]
        # Ring step t: leader i forwards group (i - t) mod G.
        return [
            Stage(src=leaders, dst=nxt, units=np.roll(sizes, t), label=f"hier:leaders-ring{t}")
            for t in range(G - 1)
        ]

    def schedule(self, p: int) -> Schedule:
        """Timing view: :meth:`stages` without blocks, built array-wise.

        Message order, units and labels equal the :meth:`stages` view; the
        leader ring becomes one ``repeat = G - 1`` stage when every group
        has the same size.
        """
        self._check_p(p)
        stages = self._intra_schedule(gather=True)
        stages += self._leader_schedule()
        stages += self._intra_schedule(gather=False)
        return Schedule(p=p, stages=stages, name=self.name)
