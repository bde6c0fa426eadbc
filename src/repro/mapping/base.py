"""Mapping foundations: free-core pools, the mapper interface, the driver.

All five paper heuristics are instances of one greedy scheme (paper
Algorithm 1): fix rank 0 on its current core, then repeatedly pick the
next process by a pattern-specific priority and place it on the *free core
closest to a reference core*.  Two layers fall out of that observation:

* each heuristic's *placement program* — the ``(new_rank, ref_rank)``
  sequence, which depends only on ``p`` and the heuristic's parameters,
  never on distances or the rng (:meth:`GreedyPlacementMapper.placements`);
* one shared *executor* that walks the program against a free-core pool.

Two pool implementations serve the ``find_closest_to`` step, both
including the paper's random tie-breaking with identical rng-stream
consumption, so their placements are bit-identical.  The distance
backend alone picks which one a map runs on:

* :class:`HierarchicalFreePool` — the vectorised driver, for an
  :class:`~repro.topology.implicit.ImplicitDistances` backend with a
  strict ladder (``supports_vectorized_placement``): the closest free
  core is found from hierarchy *coordinates* alone — O(1) free-count
  bookkeeping per level plus one gather over the winning annulus — no
  distance row is ever materialised;
* :class:`CorePool` — argmin over the free cores' distances, for a dense
  matrix or an implicit backend whose ladder collapses levels; the tests
  also use it as the vectorised driver's oracle.
"""

from __future__ import annotations

import time
import weakref
from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.util.lru import LRU
from repro.util.rng import RngLike, make_rng
from repro.util.validation import PY_SCAN_MAX, same_multiset

__all__ = [
    "PoolExhaustedError",
    "CorePool",
    "HierarchicalFreePool",
    "Mapper",
    "GreedyPlacementMapper",
    "as_distance_lookup",
    "map_batch",
]


class PoolExhaustedError(RuntimeError):
    """Raised when a closest-free query runs against an empty pool.

    Subclasses :class:`RuntimeError` so legacy ``except RuntimeError``
    call sites (and tests matching the original message) keep working.
    """


def as_distance_lookup(D):
    """Return an object supporting ``D[i, cols]`` core-distance indexing.

    Dense arrays pass through ``np.asarray``; implicit backends (anything
    exposing a ``row`` method, i.e. :class:`~repro.topology.implicit.
    ImplicitDistances`) are returned unchanged — they already implement
    the same indexing per-row on demand.
    """
    return D if hasattr(D, "row") else np.asarray(D)


def _n_rows(D) -> int:
    """Number of cores covered by a dense or implicit distance object."""
    return int(D.shape[0])


class CorePool:
    """Free-core bookkeeping with closest-core queries (reference executor).

    Parameters
    ----------
    D:
        Core-by-core distances under full-cluster indexing: either the
        dense matrix or an :class:`~repro.topology.implicit.
        ImplicitDistances` backend (rows are then computed on demand and
        cached per reference core — no dense materialisation).
    cores:
        The candidate cores — exactly the cores the job's processes occupy
        (reordering never migrates a process to an unused core).
    rng:
        Tie-break source.  The paper breaks distance ties randomly; pass
        ``tie_break="first"`` for deterministic lowest-id behaviour in
        tests.
    """

    def __init__(
        self,
        D,
        cores: Sequence[int],
        rng: RngLike = 0,
        tie_break: str = "random",
    ) -> None:
        if tie_break not in ("random", "first"):
            raise ValueError(f"tie_break must be 'random' or 'first', got {tie_break!r}")
        self.D = as_distance_lookup(D)
        self.cores = np.asarray(cores, dtype=np.int64)
        if self.cores.size == 0:
            raise ValueError("empty core set")
        if np.unique(self.cores).size != self.cores.size:
            raise ValueError("duplicate cores in pool")
        if self.cores.max() >= _n_rows(self.D) or self.cores.min() < 0:
            raise ValueError("core id outside the distance matrix")
        self.free = np.ones(self.cores.size, dtype=bool)
        self._pos: Dict[int, int] = {int(c): i for i, c in enumerate(self.cores)}
        self.rng = make_rng(rng)
        self.tie_break = tie_break
        # per-reference row cache for implicit backends (pool pos -> row)
        self._row_cache: Dict[int, np.ndarray] = {}

    @property
    def n_free(self) -> int:
        """Number of cores still unassigned."""
        return int(self.free.sum())

    def take(self, core: int) -> None:
        """Mark ``core`` as assigned."""
        pos = self._pos.get(int(core))
        if pos is None:
            raise KeyError(f"core {core} is not in the pool")
        if not self.free[pos]:
            raise ValueError(f"core {core} already taken")
        self.free[pos] = False

    def _implicit_row(self, ref_core: int) -> np.ndarray:
        """Implicit-backend distances from ``ref_core`` to every pool core.

        Reference cores are almost always pool members (heuristics chain
        off already-placed cores), so each member's row is computed once
        on first use and cached.
        """
        pos = self._pos.get(int(ref_core))
        if pos is None:
            return self.D.row(int(ref_core), self.cores)
        row = self._row_cache.get(pos)
        if row is None:
            row = self.D.row(int(ref_core), self.cores)
            self._row_cache[pos] = row
        return row

    def closest_free(self, ref_core: int) -> int:
        """The paper's ``find_closest_to``: free core nearest ``ref_core``.

        Ties are broken randomly ("if more than one core satisfy this
        condition, one of them is chosen randomly", §V-A) or by lowest id.
        One scan over the free cores only, in pool order: a dense matrix
        is gathered at ``D[ref, free cores]`` (no pool-sized copy of the
        matrix), an implicit backend's cached row is filtered.

        Raises
        ------
        PoolExhaustedError
            Every pool core is already assigned.
        """
        free = self.free
        if not free.any():
            raise PoolExhaustedError(
                f"no free cores left in the pool ({self.cores.size} cores, all taken); "
                f"cannot place another process near core {int(ref_core)}"
            )
        free_cores = self.cores[free]
        if hasattr(self.D, "row"):  # implicit backend: rows on demand
            dist = self._implicit_row(ref_core)[free]
        else:
            dist = self.D[int(ref_core), free_cores]
        if self.tie_break == "first":
            return int(free_cores[int(np.argmin(dist))])
        candidates = free_cores[dist == dist.min()]
        return int(candidates[self.rng.integers(candidates.size)])

    def place_closest(self, ref_core: int) -> int:
        """Fused :meth:`closest_free` + :meth:`take` (the executor hot path).

        The picked core is free by construction, so the take-side
        revalidation is skipped.
        """
        target = self.closest_free(ref_core)
        self.free[self._pos[target]] = False
        return target


class _PoolStructure:
    """Immutable placement structure shared across pools over one core set.

    Everything here depends only on (backend, cores) and is never mutated
    during a mapping run, so :class:`HierarchicalFreePool` caches and
    shares these across instances; only the free-flag/free-count state is
    rebuilt per pool.

    Groups carry *pool-local* ids at every level (``0 .. n - 1`` over the
    groups the pool's cores occupy, in order of first member), so the member
    lists and free-count templates are sized by the pool, not the
    cluster.  Each list has one trailing slot more — an empty member list
    with a zero count — which index ``-1`` reaches: ``local_ids`` maps a
    global group id to its local id, and a group the pool does not touch
    maps to ``-1``.
    """

    __slots__ = (
        "cores",
        "cores_l",
        "pos",
        "keys_l",
        "by_sock",
        "by_node",
        "by_leaf",
        "by_line",
        "sock_sizes",
        "node_sizes",
        "leaf_sizes",
        "line_sizes",
        "local_ids",
        "all_positions",
        "np_members",
    )

    def __init__(self, backend, cores: np.ndarray) -> None:
        self.cores = cores
        if cores.size == 0:
            raise ValueError("empty core set")
        if np.unique(cores).size != cores.size:
            raise ValueError("duplicate cores in pool")
        n_cores_total = _n_rows(backend)
        if cores.max() >= n_cores_total or cores.min() < 0:
            raise ValueError("core id outside the distance matrix")
        self.cores_l = cores.tolist()
        self.pos: Dict[int, int] = {c: i for i, c in enumerate(self.cores_l)}

        coords = backend.coords(cores)
        self.by_sock, sock_l, sock_ids = self._group_members(coords.gsock)
        self.by_node, node_l, node_ids = self._group_members(coords.node)
        self.by_leaf, leaf_l, leaf_ids = self._group_members(coords.leaf)
        self.by_line, line_l, line_ids = self._group_members(coords.line)
        self.local_ids = (sock_ids, node_ids, leaf_ids, line_ids)
        # One (sock, node, leaf, line) local-id tuple per pool position:
        # the hot path unpacks a single list slot instead of four lists.
        self.keys_l = list(zip(sock_l, node_l, leaf_l, line_l))
        # Free-count templates, list-indexed by local id (list indexing
        # beats dict hashing on the hot path); the trailing slot is 0.
        self.sock_sizes = [len(m) for m in self.by_sock]
        self.node_sizes = [len(m) for m in self.by_node]
        self.leaf_sizes = [len(m) for m in self.by_leaf]
        self.line_sizes = [len(m) for m in self.by_line]
        self.all_positions = list(range(cores.size))
        # numpy mirrors of large member lists, built lazily on first gather
        # (shared across pools: contents are as immutable as the lists)
        self.np_members: Dict[int, np.ndarray] = {}

    @staticmethod
    def _group_members(keys: np.ndarray) -> Tuple[list, list, Dict[int, int]]:
        """Pool-local grouping of one level's global group ids.

        Returns the ascending member positions per local id (plus the
        trailing empty slot), each position's local id, and the global ->
        local id map.  One pass in position order: a plain loop beats
        numpy's fixed costs on the 8-core pools of intra-node mapping and
        stays within noise of it on a whole 16k-core cluster.
        """
        local_ids: Dict[int, int] = {}
        members: list = []
        local = []
        for pos, g in enumerate(keys.tolist()):
            i = local_ids.get(g)
            if i is None:
                i = local_ids[g] = len(members)
                members.append([])
            members[i].append(pos)
            local.append(i)
        members.append([])
        return members, local, local_ids


class _TieBreakDraws:
    """``rng.integers(k)`` tie-breaks served from one bulk draw of words.

    For ``2 <= k <= 2**32`` numpy answers ``Generator.integers(k)`` with
    Lemire's multiply-and-reject rule over the bit generator's 32-bit
    words: ``m = w * k`` is accepted as ``m >> 32`` unless its low 32 bits
    fall below ``(2**32 - k) % k``, in which case the next word is tried.
    ``rng.integers(0, 2**32, dtype=np.uint32)`` returns exactly those
    words, so one bulk draw serves a whole placement program and
    :meth:`below` applies the rule in Python (no numpy call per draw).
    :meth:`settle` rewinds the generator and replays exactly the words the
    rule used, leaving it where the per-call draws would have.
    """

    __slots__ = ("rng", "state", "words", "chunk")

    def __init__(self, rng: np.random.Generator, chunk: int) -> None:
        self.rng = rng
        #: generator state before the first bulk draw (None: nothing drawn)
        self.state = None
        self.words: list = []
        self.chunk = max(int(chunk), 1)

    def more(self) -> list:
        """Append the next words of the stream; returns the (same) list."""
        if self.state is None:
            self.state = self.rng.bit_generator.state
        n = max(self.chunk, len(self.words))
        self.words += self.rng.integers(0, 1 << 32, size=n, dtype=np.uint32).tolist()
        return self.words

    def below(self, k: int, i: int) -> Tuple[int, int]:
        """numpy's ``integers(k)`` applied to the words from index ``i``.

        Returns the draw and the index of the first unused word.
        """
        if k == 1:
            return 0, i  # numpy returns 0 without drawing
        threshold = ((1 << 32) - k) % k
        words = self.words
        while True:
            if i == len(words):
                words = self.more()
            m = words[i] * k
            i += 1
            if (m & 0xFFFFFFFF) >= threshold:
                return m >> 32, i

    def settle(self, used: int) -> None:
        """Rewind the generator, then replay the ``used`` words."""
        if self.state is not None:
            self.rng.bit_generator.state = self.state
            if used:
                self.rng.integers(0, 1 << 32, size=used, dtype=np.uint32)


class _FreeRanks:
    """Fenwick tree over pool positions counting the free ones.

    :meth:`select` returns the ``r``-th free position in ascending order
    (the pool-wide candidate list of :class:`CorePool`, indexed) and
    :meth:`discard` removes a taken one, both in O(log n).
    """

    __slots__ = ("tree", "top")

    def __init__(self, free: np.ndarray) -> None:
        n = free.size
        top = 1 << max(n - 1, 0).bit_length()
        # tree[i] (1-based) counts the free positions i - lowbit(i) .. i - 1
        prefix = np.zeros(top + 1, dtype=np.int64)
        np.cumsum(free, out=prefix[1 : n + 1])
        prefix[n + 1 :] = prefix[n]
        idx = np.arange(1, top + 1)
        self.tree = [0] + (prefix[idx] - prefix[idx - (idx & -idx)]).tolist()
        self.top = top

    def select(self, r: int) -> int:
        """The ``r``-th (0-based) free position."""
        tree = self.tree
        pos = 0
        step = self.top
        while step:
            t = tree[pos + step]
            if t <= r:
                pos += step
                r -= t
            step >>= 1
        return pos

    def discard(self, pos: int) -> None:
        """Mark ``pos`` as taken."""
        tree = self.tree
        top = self.top
        i = pos + 1
        while i <= top:
            tree[i] -= 1
            i += i & -i


class HierarchicalFreePool:
    """Vectorised closest-free pool driven by hierarchy coordinates.

    Replaces the per-placement distance-row scan of :class:`CorePool`
    with group bookkeeping: the free cores nearest a reference core are
    exactly the free members of the deepest non-empty *annulus* around it
    (same socket; rest of the node; rest of the leaf; rest of the line
    switch; everything else) — provided the distance ladder is strictly
    increasing, which :class:`~repro.topology.implicit.ImplicitDistances`
    certifies via ``supports_vectorized_placement``.

    Free counts per socket / node / leaf / line are O(1)-updated on every
    :meth:`take`, so a query is a constant-time level pick plus the
    ``r``-th free member of the winning annulus: a list scan for small
    groups, a telescoping boolean gather for large ones, and for the
    pool-wide level a Fenwick tree or one scan of the free mask
    (:meth:`_pool_wide_pick`).  Candidate order
    equals the free-core scan order of :class:`CorePool` (ascending pool
    position) and the rng is consumed identically — one ``integers(k)``
    draw per query with ``k > 1`` candidates in ``"random"`` mode, none in
    ``"first"`` mode; large pools serve those draws from one bulk draw
    (:class:`_TieBreakDraws`) — so placements and the generator's end
    state are bit-identical to the reference executor.
    """

    #: Member lists at or below this size are scanned in pure Python;
    #: larger ones go through numpy (lower per-element cost, higher fixed
    #: cost).  Pools at or below it also keep one ``integers(k)`` call per
    #: tie-break: a bulk draw's fixed cost exceeds what a handful of
    #: draws saves.
    _SCAN_THRESHOLD = PY_SCAN_MAX

    #: per-backend LRU of shared :class:`_PoolStructure` instances
    #: (the structure depends only on backend + core set and is immutable,
    #: so repeated mappings over the same layout skip the group build)
    _structure_caches: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
    _STRUCTURE_CACHE_SIZE = 32

    def __init__(
        self,
        backend,
        cores: Sequence[int],
        rng: RngLike = 0,
        tie_break: str = "random",
    ) -> None:
        if tie_break not in ("random", "first"):
            raise ValueError(f"tie_break must be 'random' or 'first', got {tie_break!r}")
        if not getattr(backend, "supports_vectorized_placement", False):
            raise ValueError(
                "HierarchicalFreePool needs an implicit distance backend with a "
                "strictly increasing ladder (ImplicitDistances.supports_vectorized_"
                "placement); pass the dense matrix to CorePool instead"
            )
        self.D = backend
        st = self._structure_for(backend, cores)
        self._st = st
        self.cores = st.cores
        self.rng = make_rng(rng)
        self.tie_break = tie_break
        n = len(st.cores_l)
        self._free_np = np.ones(n, dtype=bool)
        # positions taken since the numpy mask was last synced (the mask
        # is only needed for large-group gathers, so scalar stores are
        # batched into one fancy-index per gather instead)
        self._dirty: list = []
        self._free_l = [True] * n
        self._pos = st.pos

        # Pure-int coordinate arithmetic constants (the hot path must not
        # touch numpy for single-core coordinate lookups).
        cl = backend.cluster
        self._cpn = int(cl.cores_per_node)
        self._cps = int(cl.machine.cores_per_socket)
        self._nspn = int(cl.machine.n_sockets)
        self._npl = int(cl.network.config.nodes_per_leaf)
        self._nlines = int(cl.network.config.lines_per_core)

        # Mutable per-run state: free flags + per-group free counts
        # (list-indexed by local group id; see _PoolStructure).
        self._free_sock = list(st.sock_sizes)
        self._free_node = list(st.node_sizes)
        self._free_leaf = list(st.leaf_sizes)
        self._free_line = list(st.line_sizes)
        self._total_free = n
        # Telescoping free-member snapshots per large group (keyed like
        # ``np_members``): freeness only ever decreases, so the previous
        # snapshot is always a superset and each re-filter scans the
        # current free count, not the full group.
        self._free_snap: Dict[int, np.ndarray] = {}
        # Pool-wide picks (see _pool_wide_pick): the free ranks while they
        # are kept, the positions taken since they were last brought up to
        # date, and the free count at the previous pool-wide pick (2n: none
        # yet, so the first pick is never within n/64 takes of it).
        self._ranks: "_FreeRanks | None" = None
        self._ranks_stale: list = []
        self._wide_at = 2 * n

    @classmethod
    def _structure_for(cls, backend, cores: Sequence[int]) -> "_PoolStructure":
        """Shared immutable structure for (backend, core set), LRU-cached."""
        arr = np.ascontiguousarray(np.asarray(cores, dtype=np.int64))
        per_backend = cls._structure_caches.get(backend)
        if per_backend is None:
            per_backend = cls._structure_caches.setdefault(
                backend, LRU(cls._STRUCTURE_CACHE_SIZE)
            )
        return per_backend.get_or_build(arr.tobytes(), lambda: _PoolStructure(backend, arr))

    def _coords_of(self, core: int) -> Tuple[int, int, int, int]:
        """Local (sock, node, leaf, line) ids of any core — integer-only.

        A group the pool does not touch maps to ``-1``: the trailing slot,
        whose free count is always zero.
        """
        node = core // self._cpn
        gsock = node * self._nspn + (core % self._cpn) // self._cps
        leaf = node // self._npl
        sock_ids, node_ids, leaf_ids, line_ids = self._st.local_ids
        return (
            sock_ids.get(gsock, -1),
            node_ids.get(node, -1),
            leaf_ids.get(leaf, -1),
            line_ids.get(leaf % self._nlines, -1),
        )

    @property
    def free(self) -> np.ndarray:
        """Free mask over pool positions (synced on access)."""
        dirty = self._dirty
        if dirty:
            free_np = self._free_np
            if len(dirty) < 16:
                # a scalar store beats list->array conversion at this size
                for i in dirty:
                    free_np[i] = False
            else:
                free_np[dirty] = False
            dirty.clear()
        return self._free_np

    @property
    def n_free(self) -> int:
        """Number of cores still unassigned."""
        return self._total_free

    def take(self, core: int) -> None:
        """Mark ``core`` as assigned (O(1) group-count updates)."""
        pos = self._pos.get(int(core))
        if pos is None:
            raise KeyError(f"core {core} is not in the pool")
        if not self._free_l[pos]:
            raise ValueError(f"core {core} already taken")
        self._free_l[pos] = False
        self._dirty.append(pos)
        gs, nd, lf, ln = self._st.keys_l[pos]
        self._free_sock[gs] -= 1
        self._free_node[nd] -= 1
        self._free_leaf[lf] -= 1
        self._free_line[ln] -= 1
        self._total_free -= 1
        if self._ranks is not None:
            self._ranks_stale.append(pos)

    def _member_array(self, members: list) -> np.ndarray:
        """numpy mirror of a large member list, built once per structure."""
        key = id(members)
        arr = self._st.np_members.get(key)
        if arr is None:
            arr = np.asarray(members, dtype=np.int64)
            self._st.np_members[key] = arr
        return arr

    def _pool_wide_pick(self, r: int, total_free: int) -> int:
        """The ``r``-th free pool position (a reference's line switch is full).

        Runs of such picks at most n/64 takes apart (BGMH makes ~4,300 per
        map at p = 16384) are answered by a Fenwick tree in O(log n), built
        from the free mask at the second pick of a run and brought up to
        date by discarding the takes in between.  An isolated pick (the
        other heuristics make ~17 per map) is read off the free mask and
        drops the tree: at n = 16384 one numpy scan costs ~24 us, a tree
        build ~0.4 ms and a discard ~1.5 us.
        """
        stale = self._ranks_stale
        run = self._wide_at - total_free <= len(self._free_l) >> 6
        self._wide_at = total_free
        if not run:
            self._ranks = None
            stale.clear()
            return int(np.flatnonzero(self.free)[r])
        ranks = self._ranks
        if ranks is None:
            ranks = self._ranks = _FreeRanks(self.free)
        else:
            for pos in stale:
                ranks.discard(pos)
        stale.clear()
        return ranks.select(r)

    def place_closest(self, ref_core: int) -> int:
        """Take the free core nearest ``ref_core``: a one-step program.

        Picks what :meth:`CorePool.place_closest` picks, with the same
        rng draws.

        Raises
        ------
        PoolExhaustedError
            Every pool core is already assigned.
        """
        M = [int(ref_core), -1]
        self.execute_program(((1, 0),), M)
        return M[1]

    def execute_program(self, program: Iterator[Tuple[int, int]], M: list) -> None:
        """Run a placement program: ``M[new] = closest free core to M[ref]``.

        One tight loop with every hot attribute hoisted into a local.  Per
        step: the reference itself if free, else the deepest level with a
        free core (free count ``k``, which equals the number of candidates
        :class:`CorePool` enumerates), a tie-break ``r`` drawn as
        ``integers(k)`` would draw it, and the ``r``-th free member of that
        level in ascending pool position.

        Raises
        ------
        PoolExhaustedError
            A step found every pool core assigned.  Placements made before
            it stay made, and the rng has drawn what :class:`CorePool`
            would have drawn by then.
        """
        st = self._st
        pos_d = self._pos
        free_l = self._free_l
        keys_l = st.keys_l
        by_sock, by_node = st.by_sock, st.by_node
        by_leaf, by_line = st.by_leaf, st.by_line
        free_sock, free_node = self._free_sock, self._free_node
        free_leaf, free_line = self._free_leaf, self._free_line
        all_positions = st.all_positions
        free_snap = self._free_snap
        cores_l = st.cores_l
        first = self.tie_break == "first"
        dirty = self._dirty
        threshold = self._SCAN_THRESHOLD
        total_free = self._total_free
        ranks = self._ranks
        ranks_stale = self._ranks_stale
        randint = self.rng.integers
        # Large pools serve their tie-breaks from bulk-drawn words (the
        # fast accept of the rule is inlined below; see _TieBreakDraws).
        draws = None
        if not first and len(cores_l) > threshold:
            draws = _TieBreakDraws(self.rng, len(M))
        words: list = []
        wi = 0
        try:
            for new_rank, ref_rank in program:
                if total_free == 0:
                    raise PoolExhaustedError(
                        f"no free cores left in the pool ({self.cores.size} cores, all "
                        f"taken); cannot place another process near core {M[ref_rank]}"
                    )
                ref_core = M[ref_rank]
                pos = pos_d.get(ref_core)
                if pos is not None and free_l[pos]:
                    # The reference itself is free: distance 0 beats every
                    # level.  CorePool draws integers(1) here, which
                    # consumes no rng state, so no draw is made.
                    pick = pos
                else:
                    if pos is not None:
                        gs, nd, lf, ln = keys_l[pos]
                    else:
                        gs, nd, lf, ln = self._coords_of(int(ref_core))
                    if (k := free_sock[gs]) > 0:
                        members = by_sock[gs]
                    elif (k := free_node[nd]) > 0:
                        members = by_node[nd]
                    elif (k := free_leaf[lf]) > 0:
                        members = by_leaf[lf]
                    elif (k := free_line[ln]) > 0:
                        members = by_line[ln]
                    else:
                        members = all_positions
                        k = total_free
                    # integers(1) consumes no rng state: k == 1 skips it.
                    if first or k == 1:
                        r = 0
                    elif draws is None:
                        r = randint(k)
                    else:
                        try:
                            m = words[wi] * k
                        except IndexError:
                            words = draws.more()
                            m = words[wi] * k
                        wi += 1
                        if (m & 0xFFFFFFFF) < k:
                            # below the rejection threshold's upper bound:
                            # run the full rule from this word
                            r, wi = draws.below(k, wi - 1)
                        else:
                            r = m >> 32
                    if len(members) <= threshold:
                        # the r-th free member (a loop beats a list
                        # comprehension's call at socket size)
                        for pick in members:
                            if free_l[pick]:
                                if not r:
                                    break
                                r -= 1
                    elif members is all_positions:
                        pick = self._pool_wide_pick(r, total_free)
                        ranks = self._ranks
                    else:
                        key = id(members)
                        snap = free_snap.get(key)
                        if snap is None:
                            snap = self._member_array(members)
                        snap = free_snap[key] = snap[self.free[snap]]
                        # snap holds exactly the k free members, ascending.
                        pick = int(snap[r])
                free_l[pick] = False
                dirty.append(pick)
                gs, nd, lf, ln = keys_l[pick]
                free_sock[gs] -= 1
                free_node[nd] -= 1
                free_leaf[lf] -= 1
                free_line[ln] -= 1
                total_free -= 1
                if ranks is not None:
                    ranks_stale.append(pick)
                M[new_rank] = cores_l[pick]
        finally:
            self._total_free = total_free
            if draws is not None:
                draws.settle(wi)


class Mapper(ABC):
    """Interface of every mapping algorithm.

    ``map`` consumes the initial layout (``layout[old_rank] = core``) and
    the distance matrix and produces the mapping array ``M`` with
    ``M[new_rank] = core`` — the paper's output ("a mapping array M
    representing the new rank for each process").  The cores of ``M`` are
    exactly those of ``layout`` and ``M[0] == layout[0]`` (rank 0 is fixed
    on its current core, Algorithm 1 step 1).
    """

    #: pattern key this mapper is fine-tuned for ("*" = pattern-agnostic)
    pattern: str = "*"
    #: short display name for reports
    name: str = "mapper"

    @abstractmethod
    def map(self, layout: Sequence[int], D, rng: RngLike = 0) -> np.ndarray:
        """Compute the mapping array ``M``."""

    def map_groups(self, groups: Sequence[Sequence[int]], D, rng: RngLike = 0) -> List[np.ndarray]:
        """Map each group of cores on its own, in order, from one generator.

        ``result[g] == self.map(groups[g], D, rng=gen)`` for one
        ``gen = make_rng(rng)`` that the groups draw from in turn (an
        integer seed seeds one stream for all groups, not one each).  This
        is the per-node pass of hierarchical reordering (paper §VI-A2).
        """
        gen = make_rng(rng)
        return [self.map(g, D, rng=gen) for g in groups]

    @staticmethod
    def _finish(M: np.ndarray, layout: np.ndarray) -> np.ndarray:
        """Validate the result is a complete mapping over the same cores."""
        if np.any(M < 0):
            missing = np.flatnonzero(M < 0)[:4].tolist()
            raise RuntimeError(f"mapper left ranks unmapped: {missing}")
        if not same_multiset(M, layout):
            raise RuntimeError("mapper produced cores outside the layout")
        return M


class GreedyPlacementMapper(Mapper):
    """Shared executor for the paper's Algorithm-1 greedy heuristics.

    Subclasses supply only their *placement program* — the structural
    ``(new_rank, ref_rank)`` sequence (:meth:`placements`), which never
    depends on distances or randomness — and this base walks it against the
    free-core pool the distance backend calls for (:meth:`_open_pool`).
    Both pools consume the rng stream identically, so the produced
    permutations do not depend on which one ran.
    """

    def __init__(self, tie_break: str = "random") -> None:
        if tie_break not in ("random", "first"):
            raise ValueError(f"tie_break must be 'random' or 'first', got {tie_break!r}")
        self.tie_break = tie_break

    @abstractmethod
    def placements(self, p: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(new_rank, ref_rank)`` pairs in placement order.

        Purely structural: the sequence depends only on ``p`` and the
        heuristic's parameters, never on the distance backend or rng.
        Rank 0 is pre-placed by the executor and must not be yielded.
        """

    def _validate_p(self, p: int) -> None:
        """Hook for heuristics with process-count constraints (e.g. RDMH)."""

    def _open_pool(self, D, L: np.ndarray, rng: RngLike):
        """:class:`HierarchicalFreePool` on a strict implicit ladder, else :class:`CorePool`."""
        if getattr(D, "supports_vectorized_placement", False):
            return HierarchicalFreePool(D, L, rng=rng, tie_break=self.tie_break)
        return CorePool(D, L, rng=rng, tie_break=self.tie_break)

    def map(self, layout: Sequence[int], D, rng: RngLike = 0) -> np.ndarray:
        """Execute the placement program against the backend's pool."""
        L = np.asarray(layout, dtype=np.int64)
        if L.size < 1:
            raise ValueError("empty layout")
        self._validate_p(L.size)
        pool = self._open_pool(D, L, rng)
        # Plain-int mapping list during the walk (one pool query + update
        # per placement; numpy scalar boxing would dominate at large p).
        M = [-1] * L.size
        M[0] = int(L[0])
        pool.take(M[0])
        run = getattr(pool, "execute_program", None)
        if run is not None:
            run(self.placements(L.size), M)
        else:
            place = pool.place_closest
            for new_rank, ref_rank in self.placements(L.size):
                M[new_rank] = place(M[ref_rank])
        return self._finish(np.asarray(M, dtype=np.int64), L)

    def map_groups(self, groups: Sequence[Sequence[int]], D, rng: RngLike = 0) -> List[np.ndarray]:
        """Per-node maps as one placement program (equal to the ``map`` loop).

        On a strict implicit ladder (``supports_vectorized_placement``),
        groups that each sit on one node, no two on the same node — what
        :meth:`~repro.evaluation.evaluator.AllgatherEvaluator.
        groups_from_layout` yields — run as one :meth:`HierarchicalFreePool.
        execute_program` call over their concatenated cores: every group's
        first core is taken up front, then each group's program, shifted by
        the group's offset, runs in group order.  Around any reference in
        group ``g`` the socket and node levels hold only ``g``'s cores, and
        ``g`` keeps a free core until its program ends, so no step reaches
        the leaf, line or pool-wide level; candidate order (pool position)
        and every tie-break bound ``k`` are those of ``g``'s own pool, and
        bulk-drawn tie-breaks consume the stream as ``integers(k)`` does
        (:class:`_TieBreakDraws`).  Mappings and the generator's end state
        therefore equal the per-group loop's.  Any other input runs the
        loop; a group size the heuristic rejects raises before any draw.
        """
        gen = make_rng(rng)
        Ls = [np.asarray(g, dtype=np.int64) for g in groups]
        sizes = [L.size for L in Ls]
        if not getattr(D, "supports_vectorized_placement", False) or not Ls or min(sizes) < 1:
            return super().map_groups(Ls, D, gen)
        cat = np.concatenate(Ls)
        starts = np.cumsum([0] + sizes[:-1])
        nodes = D.cluster.node_of(cat)
        leads = nodes[starts]
        if np.unique(leads).size != leads.size or not np.array_equal(
            np.repeat(leads, sizes), nodes
        ):
            return super().map_groups(Ls, D, gen)
        programs: Dict[int, list] = {}
        for m in sizes:
            if m not in programs:
                self._validate_p(m)
                programs[m] = list(self.placements(m))
        pool = HierarchicalFreePool(D, cat, rng=gen, tie_break=self.tie_break)
        cat_l = cat.tolist()
        M = [-1] * len(cat_l)
        starts_l = starts.tolist()
        for s in starts_l:
            M[s] = cat_l[s]
            pool.take(M[s])
        pool.execute_program(
            [(new + s, ref + s) for m, s in zip(sizes, starts_l) for new, ref in programs[m]],
            M,
        )
        out = np.asarray(M, dtype=np.int64)
        if np.any(out < 0):
            missing = np.flatnonzero(out < 0)[:4].tolist()
            raise RuntimeError(f"mapper left ranks unmapped: {missing}")
        # Per group: rank 0 stays put and the cores are the group's own
        # (group-offset keys make one sort check every group at once).
        key = np.repeat(np.arange(len(sizes), dtype=np.int64) * _n_rows(D), sizes)
        if not np.array_equal(out[starts], cat[starts]) or not same_multiset(out + key, cat + key):
            raise RuntimeError("mapper moved a group's rank 0 or produced cores outside its group")
        ends = starts_l[1:] + [out.size]
        return [out[a:b] for a, b in zip(starts_l, ends)]


def map_batch(mappers, layout: Sequence[int], D, rngs, seconds_out=None) -> list:
    """Run several mappers over one (layout, backend) pair in a single pass.

    The per-topology setup every :meth:`GreedyPlacementMapper.map` call
    needs — the shared :class:`_PoolStructure` (group membership,
    free-count templates) — is built by the first mapper's ``map`` and
    found in the per-backend LRU by every later one; only the per-run
    free state is rebuilt per mapper.  Each mapper still draws from its
    *own* rng (``rngs[i]``), so every result is bit-identical to the
    corresponding standalone ``map`` call — this is the executor under
    :func:`repro.mapping.reorder.reorder_all`.

    Parameters
    ----------
    mappers:
        The mapper instances to run (typically one per registered
        heuristic).
    layout:
        The shared initial layout (``layout[old_rank] = core``).
    D:
        The shared distance backend (dense or implicit).
    rngs:
        One :data:`~repro.util.rng.RngLike` per mapper.
    seconds_out:
        Optional list; when given, the wall-clock seconds of each
        individual ``map`` call are appended to it (one entry per
        mapper; the first also pays the shared structure build), so callers
        can report per-heuristic timings without paying a second pass.

    Returns
    -------
    list of np.ndarray
        ``results[i] = mappers[i].map(layout, D, rng=rngs[i])``.
    """
    mappers = list(mappers)
    rngs = list(rngs)
    if len(rngs) != len(mappers):
        raise ValueError(f"got {len(mappers)} mappers but {len(rngs)} rngs")
    if not mappers:
        return []
    L = np.ascontiguousarray(np.asarray(layout, dtype=np.int64))
    t0 = time.perf_counter()
    results = []
    for m, rng in zip(mappers, rngs):
        results.append(m.map(L, D, rng=rng))
        if seconds_out is not None:
            seconds_out.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
    return results
