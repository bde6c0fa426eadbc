"""Placement-identity tests: CorePool vs. the vectorised driver.

The vectorised driver (:class:`repro.mapping.base.HierarchicalFreePool`
driven by ``execute_program``, which a map opens on a strict implicit
ladder) must reproduce :class:`~repro.mapping.base.CorePool` (which a map
opens on the dense matrix) *bit for bit* — same cores, same rng stream,
both tie-break modes — otherwise a mapping would depend on the distance
backend it was computed from.  Its bulk-drawn tie-breaks are checked
against ``Generator.integers`` itself, so a change to numpy's bounded
draw fails here instead of moving placements.
"""

import hashlib

import numpy as np
import pytest

from repro.evaluation.evaluator import AllgatherEvaluator
from repro.mapping import base
from repro.mapping.base import (
    CorePool,
    HierarchicalFreePool,
    PoolExhaustedError,
)
from repro.mapping.bbmh import BBMH
from repro.mapping.bgmh import BGMH
from repro.mapping.bruckmh import BruckMH
from repro.mapping.initial import INITIAL_LAYOUTS, make_layout
from repro.mapping.rdmh import RDMH
from repro.mapping.reorder import reorder_all
from repro.mapping.rmh import RMH
from repro.topology.cluster import (
    DEFAULT_DISTANCE_WEIGHTS,
    ClusterTopology,
    LinkClass,
)
from repro.topology.gpc import gpc_cluster
from repro.util.rng import make_rng

HEURISTICS = [RMH, RDMH, BBMH, BGMH, BruckMH]
#: Heuristics without a power-of-two constraint on p.
ANY_P_HEURISTICS = [RMH, BGMH, BruckMH]


@pytest.fixture(scope="module")
def big_cluster():
    """32 nodes x 8 cores = 256 cores, spanning two leaf switches."""
    return gpc_cluster(n_nodes=32)


def _both_engines(cls, cluster, layout, tie_break, seed, vect_seed=None):
    """Map on the dense matrix (CorePool) and on the implicit backend
    (HierarchicalFreePool); ``vect_seed`` gives the vectorised map its own
    rng when ``seed`` is a live Generator (default: ``seed`` itself)."""
    naive = cls(tie_break=tie_break).map(layout, cluster.distance_matrix(), rng=seed)
    vect = cls(tie_break=tie_break).map(
        layout,
        cluster.implicit_distances(),
        rng=seed if vect_seed is None else vect_seed,
    )
    return naive, vect


class TestPlacementIdentity:
    @pytest.mark.parametrize("cls", HEURISTICS)
    @pytest.mark.parametrize("p", [4, 16, 64])
    @pytest.mark.parametrize("tie_break", ["random", "first"])
    def test_engines_bit_identical_small(self, mid_cluster, cls, p, tie_break):
        for lname in ("block-bunch", "cyclic-scatter"):
            L = make_layout(lname, mid_cluster, p)
            for seed in (0, 7):
                naive, vect = _both_engines(cls, mid_cluster, L, tie_break, seed)
                assert np.array_equal(naive, vect), (cls.__name__, lname, seed)

    @pytest.mark.parametrize("cls", HEURISTICS)
    @pytest.mark.parametrize("tie_break", ["random", "first"])
    def test_engines_bit_identical_p256(self, big_cluster, cls, tie_break):
        L = make_layout("block-bunch", big_cluster, 256)
        naive, vect = _both_engines(cls, big_cluster, L, tie_break, 3)
        assert np.array_equal(naive, vect)

    @pytest.mark.parametrize("cls", ANY_P_HEURISTICS)
    @pytest.mark.parametrize("tie_break", ["random", "first"])
    def test_engines_bit_identical_after_shrink(self, mid_cluster, cls, tie_break):
        # Post-failure pools are irregular: whole nodes missing, free
        # groups of uneven size — exactly where the hierarchical
        # bookkeeping could diverge from the reference.
        survivors = mid_cluster.shrink([2, 5])
        assert survivors.size == 48
        naive, vect = _both_engines(cls, mid_cluster, survivors, tie_break, 11)
        assert np.array_equal(naive, vect)

    @pytest.mark.parametrize("cls", HEURISTICS)
    def test_engines_bit_identical_partial_survivors(self, mid_cluster, cls):
        # Power-of-two slice of the survivor pool, so RDMH/BBMH join in.
        survivors = mid_cluster.shrink([1, 6])[:32]
        naive, vect = _both_engines(cls, mid_cluster, survivors, "random", 5)
        assert np.array_equal(naive, vect)

    @pytest.mark.parametrize("cls", HEURISTICS)
    def test_rng_stream_identical_after_map(self, mid_cluster, cls):
        """A shared Generator ends in the same state whatever the engine."""
        L = make_layout("cyclic-bunch", mid_cluster, 64)
        g1, g2 = make_rng(99), make_rng(99)
        naive, vect = _both_engines(cls, mid_cluster, L, "random", g1, g2)
        assert np.array_equal(naive, vect)
        assert g1.bit_generator.state == g2.bit_generator.state
        assert g1.integers(1 << 30) == g2.integers(1 << 30)

    def test_non_pcg64_generator_identical(self, mid_cluster):
        """Placements and streams agree for a non-default bit generator."""
        L = make_layout("block-bunch", mid_cluster, 32)
        g1 = np.random.Generator(np.random.MT19937(5))  # noqa: REP001
        g2 = np.random.Generator(np.random.MT19937(5))  # noqa: REP001
        naive, vect = _both_engines(RMH, mid_cluster, L, "random", g1, g2)
        assert np.array_equal(naive, vect)
        s1, s2 = g1.bit_generator.state["state"], g2.bit_generator.state["state"]
        assert np.array_equal(s1["key"], s2["key"]) and s1["pos"] == s2["pos"]

    @pytest.mark.parametrize("cls", HEURISTICS)
    def test_engines_bit_identical_p1024(self, cls):
        cluster = gpc_cluster(n_nodes=128)
        for lname in ("block-bunch", "cyclic-scatter"):
            L = make_layout(lname, cluster, 1024)
            naive, vect = _both_engines(cls, cluster, L, "random", 0)
            assert np.array_equal(naive, vect), lname


class TestEngineSelection:
    """The distance backend alone picks the pool a map runs on."""

    def test_auto_opens_hierarchical_pool_on_implicit_backend(self, mid_cluster):
        impl = mid_cluster.implicit_distances()
        assert impl.supports_vectorized_placement
        L = make_layout("block-bunch", mid_cluster, 16)
        assert type(RMH()._open_pool(impl, L, 0)) is HierarchicalFreePool
        dense = mid_cluster.distance_matrix()
        assert type(RMH()._open_pool(dense, L, 0)) is CorePool

    def test_auto_falls_back_on_collapsed_ladder(self):
        # Zero LEAF_LINE weight collapses the same-leaf and same-line
        # levels: the implicit backend advertises no vectorised support,
        # so a map quietly runs on CorePool.
        weights = dict(DEFAULT_DISTANCE_WEIGHTS)
        weights[LinkClass.LEAF_LINE] = 0.0
        cluster = ClusterTopology(n_nodes=8, distance_weights=weights)
        impl = cluster.implicit_distances()
        assert not impl.supports_vectorized_placement
        L = make_layout("block-bunch", cluster, 16)
        assert type(RMH()._open_pool(impl, L, 2)) is CorePool
        via_implicit = RMH().map(L, impl, rng=2)
        via_dense = RMH().map(L, cluster.distance_matrix(), rng=2)
        assert np.array_equal(via_implicit, via_dense)
        with pytest.raises(ValueError, match="CorePool"):
            HierarchicalFreePool(impl, L, rng=2)


class TestHierarchicalFreePool:
    def test_exhaustion_raises_typed_error(self, mid_cluster):
        pool = HierarchicalFreePool(
            mid_cluster.implicit_distances(), np.arange(4), rng=0
        )
        for core in range(4):
            pool.take(core)
        with pytest.raises(PoolExhaustedError, match="no free cores"):
            pool.place_closest(0)

    def test_closest_free_matches_reference(self, mid_cluster, mid_D, big_cluster):
        from repro.mapping.base import CorePool

        cores = np.arange(24)
        a = CorePool(mid_D, cores, rng=0)
        b = HierarchicalFreePool(mid_cluster.implicit_distances(), cores, rng=0)
        rng = make_rng(123)
        for _ in range(20):
            ref = int(rng.integers(24))
            assert a.place_closest(ref) == b.place_closest(ref)

        # A pool that leaves out nodes, one socket of node 5 and the whole
        # second leaf switch (nodes 30, 31): references on those cores
        # have no group in the pool at one or more levels and land on the
        # always-zero slot of the pool-local tables.
        cpn = big_cluster.cores_per_node
        nodes = [np.arange(n * cpn, (n + 1) * cpn) for n in (0, 1, 3, 17)]
        cores = np.concatenate(nodes + [np.arange(5 * cpn, 5 * cpn + 4)])
        D, impl = big_cluster.distance_matrix(), big_cluster.implicit_distances()
        a = CorePool(D, cores, rng=7)
        b = HierarchicalFreePool(impl, cores, rng=7)
        draws = make_rng(321).integers(big_cluster.n_cores, size=cores.size - 3)
        refs = [30 * cpn, 2 * cpn, 5 * cpn + 4] + draws.tolist()
        for ref in refs:
            assert a.place_closest(ref) == b.place_closest(ref)
        assert b.n_free == 0
        assert a.rng.bit_generator.state == b.rng.bit_generator.state


class TestLeanStructure:
    """A backend's LRU keeps up to 32 pool structures, so their size is
    pinned: one int object per position, one key tuple per socket, and
    int arrays for the core lookups (a core->position dict, a core list
    and four local-id dicts held 6.5 MiB at 16,384 cores)."""

    @staticmethod
    def _traced_size(n_nodes: int, cores=None) -> int:
        import tracemalloc

        impl = gpc_cluster(n_nodes=n_nodes).implicit_distances()
        if cores is None:
            cores = np.arange(impl.shape[0], dtype=np.int64)
        base._PoolStructure(impl, cores)  # pays the backend's lazy set-up
        tracemalloc.start()
        try:
            st = base._PoolStructure(impl, cores)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert st.cores.size == cores.size
        return size

    @pytest.mark.parametrize("n_nodes, bound_mib", [(512, 0.8), (2048, 3.0)])
    def test_structure_size(self, n_nodes, bound_mib):
        size = self._traced_size(n_nodes)
        assert size < bound_mib * 2**20, f"{size / 2**20:.2f} MiB"

    @pytest.mark.parametrize("first", [0, 16376])
    def test_small_pool_sized_by_the_pool(self, first):
        """8 cores at either end of a 16,384-core cluster: the lookups
        span the pool's ids, not the cluster's (65-90 KiB when they did)."""
        size = self._traced_size(2048, np.arange(first, first + 8, dtype=np.int64))
        assert size < 8 * 2**10, f"{size / 2**10:.1f} KiB"

    def test_positions_and_socket_keys_shared(self, big_cluster):
        impl = big_cluster.implicit_distances()
        cores = make_rng(5).permutation(big_cluster.n_cores)[:200]
        st = base._PoolStructure(impl, cores)
        positions = st.all_positions
        for level in (st.by_sock, st.by_node, st.by_leaf, st.by_line):
            assert all(pos is positions[pos] for members in level for pos in members)
        for members in st.by_sock[:-1]:
            assert all(st.keys_l[pos] is st.keys_l[members[0]] for pos in members)
        assert st.pos.dtype == np.int32 and st.n_cores == big_cluster.n_cores
        assert st.base == cores.min() and st.pos.size == cores.max() - cores.min() + 1
        assert np.array_equal(st.pos[cores - st.base], np.arange(cores.size))
        assert np.count_nonzero(st.pos >= 0) == cores.size

    def test_core_ids_outside_the_cluster_refused(self, big_cluster):
        """The last node's pool: a negative id read from the end of the
        position array would name a pool core."""
        n = big_cluster.n_cores
        cpn = big_cluster.cores_per_node
        pool = HierarchicalFreePool(
            big_cluster.implicit_distances(), np.arange(n - cpn, n), rng=3
        )
        state = pool.rng.bit_generator.state
        for core in (-1, -cpn, -n, n, n + 5):
            with pytest.raises(KeyError, match="outside the cluster"):
                pool.take(core)
            with pytest.raises(KeyError, match="outside the cluster"):
                pool.place_closest(core)
        assert pool.n_free == cpn
        assert pool.rng.bit_generator.state == state
        with pytest.raises(KeyError, match="not in the pool"):
            pool.take(0)
        assert pool.place_closest(0) in range(n - cpn, n)  # outside the pool: a reference
        assert pool.n_free == cpn - 1

    @pytest.mark.parametrize("node", [0, 1, 31])
    def test_cores_around_a_small_pool(self, big_cluster, node):
        """A one-node pool's lookups span its own ids only: cluster cores
        below, between and above them are outside the pool, not errors,
        and each references the pick :class:`CorePool` makes."""
        n = big_cluster.n_cores
        cpn = big_cluster.cores_per_node
        cores = np.arange(node * cpn, (node + 1) * cpn)[::2]  # every other core
        refs = [0, int(cores[0]) + 1, int(cores[-1]) + 1, n - 1]
        refs = [r for r in refs if r not in cores]
        pool = HierarchicalFreePool(big_cluster.implicit_distances(), cores, rng=4)
        ref_pool = CorePool(big_cluster.distance_matrix(), cores, rng=4)
        for core in (-1, n):
            with pytest.raises(KeyError, match="outside the cluster"):
                pool.take(core)
            with pytest.raises(KeyError, match="outside the cluster"):
                pool.place_closest(core)
        for core in refs:
            with pytest.raises(KeyError, match="not in the pool"):
                pool.take(core)
            assert pool.place_closest(core) == ref_pool.place_closest(core)
        assert pool.n_free == cores.size - len(refs)
        assert pool.rng.bit_generator.state == ref_pool.rng.bit_generator.state


def _same_state(a, b) -> bool:
    """Deep equality of two ``bit_generator.state`` values (arrays inside)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


BIT_GENERATORS = [
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
]


class TestBulkTieBreaks:
    """``_TieBreakDraws`` against ``Generator.integers(k)``, draw for draw."""

    #: Small pool-sized bounds, plus bounds >= 2**31 whose rejection
    #: threshold ((2**32 - k) % k) turns down a quarter to a half of the
    #: words, and the 2**32 edge (numpy returns the word itself).
    KS = [1, 2, 3, 4, 7, 48, 240, 960, 12_142, 16_383, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]

    @pytest.mark.parametrize("bitgen", BIT_GENERATORS)
    def test_rule_matches_integers(self, bitgen):
        ref = np.random.Generator(bitgen(2016))  # noqa: REP001
        live = np.random.Generator(bitgen(2016))  # noqa: REP001
        live.integers(1 << 30)  # start mid-stream, odd 32-bit word count
        ref.integers(1 << 30)
        ks = make_rng(1).choice(self.KS, size=600).tolist()
        draws = base._TieBreakDraws(live, 16)  # small chunk: many refills
        used = 0
        for k in ks:
            r, used = draws.below(k, used)
            assert r == ref.integers(k), k
        # every draw but k == 1 takes a word, and rejections take more
        assert used > sum(1 for k in ks if k > 1)
        assert len(draws.words) > used  # the bulk draw over-drew
        draws.settle(used)
        assert _same_state(live.bit_generator.state, ref.bit_generator.state)
        assert live.integers(1 << 62) == ref.integers(1 << 62)

    def test_settle_without_draws_leaves_generator_untouched(self):
        g = make_rng(5)
        before = g.bit_generator.state
        base._TieBreakDraws(g, 100).settle(0)
        assert g.bit_generator.state == before

    @pytest.mark.parametrize("bitgen", BIT_GENERATORS)
    def test_map_consumes_like_naive_engine(self, bitgen):
        """Every bit generator ends a large-pool map where CorePool leaves it."""
        cluster = gpc_cluster(n_nodes=16)
        L = make_layout("cyclic-scatter", cluster, 128)
        g1 = np.random.Generator(bitgen(9))  # noqa: REP001
        g2 = np.random.Generator(bitgen(9))  # noqa: REP001
        naive, vect = _both_engines(BGMH, cluster, L, "random", g1, g2)
        assert np.array_equal(naive, vect)
        assert _same_state(g1.bit_generator.state, g2.bit_generator.state)

    def test_exhaustion_mid_program_leaves_generator_aligned(self, big_cluster):
        """A program that outruns its pool raises with the rng where the
        per-query engine would have left it."""
        cores = make_layout("cyclic-scatter", big_cluster, 96)
        assert cores.size > HierarchicalFreePool._SCAN_THRESHOLD  # bulk path
        D, impl = big_cluster.distance_matrix(), big_cluster.implicit_distances()
        g1, g2 = make_rng(31), make_rng(31)
        naive = CorePool(D, cores, rng=g1)
        vect = HierarchicalFreePool(impl, cores, rng=g2)
        steps = [(i, (i - 1) // 3) for i in range(1, 120)]  # 119 > 95 free
        M1 = [-1] * 120
        M1[0] = int(cores[0])
        naive.take(M1[0])
        vect.take(M1[0])
        # the vectorised walk fills pool positions: P[0] = 0 is cores[0]
        P = [-1] * 120
        P[0] = 0
        with pytest.raises(PoolExhaustedError):
            for new, ref in steps:
                M1[new] = naive.place_closest(M1[ref])
        with pytest.raises(PoolExhaustedError):
            vect.execute_program(([n for n, _ in steps], [r for _, r in steps]), P)
        M2 = [int(cores[pos]) if pos >= 0 else -1 for pos in P]
        assert M1 == M2
        assert g1.bit_generator.state == g2.bit_generator.state
        assert g1.integers(1 << 62) == g2.integers(1 << 62)


class _ZeroedWords(np.random.Generator):
    """PCG64 whose 32-bit words that are multiples of 4 read as 0.

    Word 0 is rejected by every bound ``k`` that is not a power of two
    (``(2**32 - k) % k > 0``), so maps driven by this stream run the
    executor's rejection path, which real streams reach about once per
    10**6 draws at pool-sized ``k``.  Scalar ``integers(k)`` applies
    numpy's rule to the same words, one ``next_uint32`` each.
    """

    def __init__(self, seed: int, zeroed: bool = True) -> None:
        super().__init__(np.random.PCG64(seed))  # noqa: REP001
        self.zeroed = zeroed

    def integers(self, low, high=None, size=None, dtype=np.int64):
        if high is not None:  # the bulk word draw
            words = super().integers(low, high, size=size, dtype=dtype)
            if self.zeroed:
                words[words % 4 == 0] = 0
            return words
        k = int(low)
        if k == 1:
            return 0
        while True:
            w = int(super().integers(0, 1 << 32, dtype=np.uint32))
            m = (0 if self.zeroed and w % 4 == 0 else w) * k
            if (m & 0xFFFFFFFF) >= ((1 << 32) - k) % k:
                return m >> 32


class TestRejectionPath:
    def test_stand_in_without_zeroing_is_numpy(self):
        g, ref = _ZeroedWords(3, zeroed=False), make_rng(3)
        for k in TestBulkTieBreaks.KS * 20:
            assert g.integers(k) == ref.integers(k), k
        assert g.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("cls", [RMH, BGMH])
    def test_executor_rejections_match_naive(self, big_cluster, cls, monkeypatch):
        calls = []
        below = base._TieBreakDraws.below

        def counting(draws, k, i):
            calls.append(k)
            return below(draws, k, i)

        monkeypatch.setattr(base._TieBreakDraws, "below", counting)
        L = make_layout("cyclic-scatter", big_cluster, 256)
        g1, g2 = _ZeroedWords(17), _ZeroedWords(17)
        naive, vect = _both_engines(cls, big_cluster, L, "random", g1, g2)
        assert np.array_equal(naive, vect)
        assert g1.bit_generator.state == g2.bit_generator.state
        assert len(calls) > 10  # the executor handed rejections to the rule


class TestPoolWidePicks:
    """The Fenwick-tree level: a reference whose line switch is full."""

    @pytest.fixture()
    def select_calls(self, monkeypatch):
        calls = []
        select = base._FreeRanks.select

        def counting(ranks, r):
            calls.append(r)
            return select(ranks, r)

        monkeypatch.setattr(base._FreeRanks, "select", counting)
        return calls

    @pytest.mark.parametrize("tie_break", ["random", "first"])
    def test_bgmh_identical_at_p1024(self, tie_break, select_calls):
        cluster = gpc_cluster(n_nodes=128)
        big = gpc_cluster(n_nodes=256)
        cases = [(cluster, make_layout(name, cluster, 1024)) for name in sorted(INITIAL_LAYOUTS)]
        cases.append((cluster, make_rng(8).permutation(1024)))
        # half the cores of a 2048-core cluster: groups at every level are
        # partly missing, so annulus counts differ from the cluster's
        cases.append((big, make_rng(9).permutation(2048)[:1024]))
        for cl, L in cases:
            before = len(select_calls)
            naive, vect = _both_engines(BGMH, cl, L, tie_break, 4)
            assert np.array_equal(naive, vect)
            assert len(select_calls) - before > 10  # the level was reached
        if tie_break == "first":
            assert set(select_calls) == {0}
        else:
            assert max(select_calls) > 100

    def test_free_ranks_select_and_discard(self):
        free = make_rng(3).random(1000) < 0.6
        ranks = base._FreeRanks(free)
        for pos in np.flatnonzero(free)[::3].tolist():
            ranks.discard(pos)
            free[pos] = False
        expected = np.flatnonzero(free).tolist()
        assert [ranks.select(r) for r in range(len(expected))] == expected
        one = base._FreeRanks(np.ones(1, dtype=bool))
        assert one.select(0) == 0


class TestMapGroups:
    """``map_groups`` against the per-group ``map`` loop, draw for draw.

    On node-disjoint single-node groups the greedy heuristics run every
    group's program as one executor pass; every mapping, the generator's
    end state and its next draw must equal the loop's.
    """

    @pytest.fixture(scope="class")
    def fig4(self):
        """512 GPC nodes (4,096 cores) and their node groups per layout."""
        cluster = gpc_cluster(n_nodes=512)
        ev = AllgatherEvaluator(cluster, rng=0)
        groups = {}
        for name in sorted(INITIAL_LAYOUTS):
            L = make_layout(name, cluster, cluster.n_cores)
            groups[name] = [L[np.asarray(g)] for g in ev.groups_from_layout(L)]
        return cluster.implicit_distances(), groups

    @staticmethod
    def _match(mapper, groups, D, bitgen=np.random.PCG64, seed=2016):
        """Assert ``map_groups`` equals the loop; return its ``map`` calls."""
        g1 = np.random.Generator(bitgen(seed))  # noqa: REP001
        g2 = np.random.Generator(bitgen(seed))  # noqa: REP001
        loop = [mapper.map(c, D, rng=g1) for c in groups]
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            cls = type(mapper)
            mapped = cls.map

            def counting(self, layout, D, rng=0):
                calls.append(len(layout))
                return mapped(self, layout, D, rng=rng)

            mp.setattr(cls, "map", counting)
            one = mapper.map_groups(groups, D, g2)
        assert len(one) == len(loop)
        for a, b in zip(loop, one):
            assert np.array_equal(a, b)
        assert _same_state(g1.bit_generator.state, g2.bit_generator.state)
        assert g1.integers(1 << 62) == g2.integers(1 << 62)
        return len(calls)

    @pytest.mark.parametrize("cls", [BGMH, BBMH, RDMH])
    @pytest.mark.parametrize("tie_break", ["random", "first"])
    def test_named_layouts_p4096(self, fig4, cls, tie_break):
        D, groups = fig4
        for name in sorted(INITIAL_LAYOUTS):
            assert self._match(cls(tie_break=tie_break), groups[name], D) == 0, name

    @pytest.mark.parametrize("cls", [BGMH, BBMH, RDMH])
    def test_mt19937_p4096(self, fig4, cls):
        D, groups = fig4
        for name in ("block-bunch", "cyclic-scatter"):
            assert self._match(cls(), groups[name], D, np.random.MT19937, 9) == 0

    def test_one_program_draws_in_bulk(self, fig4, monkeypatch):
        """4,096 pooled cores pass the executor's size gate: one bulk
        stream serves the tie-breaks the per-node pools draw one by one."""
        D, groups = fig4
        bulk = []
        more = base._TieBreakDraws.more

        def counting(draws):
            bulk.append(1)
            return more(draws)

        monkeypatch.setattr(base._TieBreakDraws, "more", counting)
        assert self._match(BGMH(), groups["block-scatter"], D) == 0
        assert bulk

    @pytest.mark.parametrize("cls", [BGMH, BBMH])
    @pytest.mark.parametrize("tie_break", ["random", "first"])
    def test_random_partial_layout_uneven_groups(self, cls, tie_break):
        cluster = gpc_cluster(n_nodes=64)
        L = make_rng(3).permutation(cluster.n_cores)[:250]
        nodes = cluster.node_of(L)
        groups = [L[nodes == n] for n in np.unique(nodes)]
        assert len({g.size for g in groups}) > 3 and min(g.size for g in groups) == 1
        D = cluster.implicit_distances()
        assert self._match(cls(tie_break=tie_break), groups, D, seed=5) == 0

    @pytest.mark.parametrize("cls", [BGMH, BBMH, RDMH])
    @pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.MT19937])
    def test_small_cluster_scalar_draws(self, cls, bitgen, monkeypatch):
        """32 cores: at or below the size gate, every tie-break is one
        ``integers(k)`` call, in the loop and in the one program alike."""
        cluster = gpc_cluster(n_nodes=4)
        assert cluster.n_cores <= HierarchicalFreePool._SCAN_THRESHOLD

        def no_bulk(draws):
            raise AssertionError("bulk draw below the size gate")

        monkeypatch.setattr(base._TieBreakDraws, "more", no_bulk)
        D = cluster.implicit_distances()
        for name in sorted(INITIAL_LAYOUTS):
            L = make_layout(name, cluster, cluster.n_cores)
            nodes = cluster.node_of(L)
            groups = [L[nodes == n] for n in np.unique(nodes)]
            assert self._match(cls(), groups, D, bitgen, 4) == 0, name

    def test_groups_sharing_a_node_run_the_loop(self, mid_cluster):
        D = mid_cluster.implicit_distances()
        shared = [np.arange(0, 4), np.arange(4, 8), np.arange(8, 16)]
        assert self._match(BGMH(), shared, D) == 3
        spanning = [np.arange(4, 12), np.arange(16, 24)]
        assert self._match(BGMH(), spanning, D) == 2

    def test_dense_matrix_runs_the_loop(self, mid_cluster, mid_D):
        groups = [np.arange(n * 8, n * 8 + 8) for n in range(8)]
        assert self._match(BBMH(), groups, mid_D) == 8

    def test_scotch_map_groups_is_its_loop(self, mid_cluster):
        from repro.mapping.patterns import build_pattern
        from repro.mapping.scotch import ScotchLikeMapper

        D = mid_cluster.implicit_distances()
        groups = [np.arange(n * 8, n * 8 + 8)[::-1].copy() for n in range(8)]
        mapper = ScotchLikeMapper(build_pattern("binomial-gather", 8))
        assert self._match(mapper, groups, D) == 8

    def test_rejected_group_size_raises_before_drawing(self, mid_cluster):
        D = mid_cluster.implicit_distances()
        g = make_rng(6)
        before = g.bit_generator.state
        with pytest.raises(ValueError, match="power-of-two"):
            RDMH().map_groups([np.arange(8), np.arange(8, 14)], D, g)
        assert g.bit_generator.state == before

    # Groups of 8: swapping positions 0 and 1 moves group 0's rank 0;
    # swapping 7 and 9 moves a core into group 1, past its rank 0 at 8.
    @pytest.mark.parametrize("swap", [(0, 1), (7, 9)], ids=["moved-rank-0", "cross-group"])
    def test_per_group_check_rejects_a_bad_program(self, mid_cluster, monkeypatch, swap):
        run = HierarchicalFreePool.execute_program

        def corrupting(pool, program, M):
            run(pool, program, M)
            i, j = swap
            M[i], M[j] = M[j], M[i]

        monkeypatch.setattr(HierarchicalFreePool, "execute_program", corrupting)
        D = mid_cluster.implicit_distances()
        groups = [np.arange(n * 8, n * 8 + 8) for n in range(8)]
        with pytest.raises(RuntimeError, match="rank 0 or produced cores outside its group"):
            BGMH().map_groups(groups, D, 1)

    def test_intra_pass_is_one_map_groups_call(self, mid_cluster, monkeypatch):
        ev = AllgatherEvaluator(mid_cluster, rng=0)
        L = make_layout("cyclic-scatter", mid_cluster, mid_cluster.n_cores)
        groups = ev.groups_from_layout(L)
        expected, _ = ev._intra_reordering(L, groups, "heuristic", "binomial", make_rng(3))
        calls = []
        map_groups = base.GreedyPlacementMapper.map_groups

        def counting(mapper, groups, D, rng=0):
            calls.append(len(groups))
            return map_groups(mapper, groups, D, rng)

        monkeypatch.setattr(base.GreedyPlacementMapper, "map_groups", counting)
        monkeypatch.setattr(base.GreedyPlacementMapper, "map", None)  # never per node
        got, _ = ev._intra_reordering(L, groups, "heuristic", "binomial", make_rng(3))
        assert calls == [8]
        assert all(np.array_equal(a, b) for a, b in zip(expected, got))


#: sha1 over (pattern, mapping bytes) of reorder_all at p=16384, seed 7,
#: per layout, and of the live-Generator run; computed before the
#: executor served tie-breaks from bulk draws and pool-wide picks from a
#: Fenwick tree, which must leave every placement unchanged.
P16384_DIGESTS = {
    "block-bunch": "5cf8e2aac4fa76ce3b2cabccc8f94bb6e1f87702",
    "block-scatter": "12114e3ef749278a230e55ec8b1bc872fd0e527c",
    "cyclic-bunch": "a4d7bd481da58142002c24a295345940bfad284a",
    "cyclic-scatter": "3943df03fa1b592155968ab74b811323bcb31d54",
    "random": "83986e9821c64828267cf8d5f413c7e88ea36241",
    "live": "9d8af41384bd31e346913e307425e93fc47904d0",
}
#: the live Generator's next ``integers(1 << 62)`` after that run
P16384_NEXT_DRAW = 163405077609869706


def _digest(results) -> str:
    h = hashlib.sha1()
    for pattern in sorted(results):
        h.update(pattern.encode())
        h.update(np.ascontiguousarray(results[pattern].mapping, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.slow
def test_reorder_all_p16384_pinned():
    """Every placement and rng draw at p=16384 stays what it was (~4 s)."""
    cluster = gpc_cluster(n_nodes=2048)
    D = cluster.implicit_distances()
    p = cluster.n_cores
    layouts = {name: make_layout(name, cluster, p) for name in sorted(INITIAL_LAYOUTS)}
    layouts["random"] = make_rng(2016).permutation(p)
    got = {name: _digest(reorder_all(L, D, rng=7, cache="off")) for name, L in layouts.items()}
    g = make_rng(11)
    got["live"] = _digest(reorder_all(layouts["random"], D, rng=g, cache="off"))
    assert got == P16384_DIGESTS
    assert int(g.integers(1 << 62)) == P16384_NEXT_DRAW
