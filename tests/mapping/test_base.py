"""CorePool and Mapper plumbing tests."""

import numpy as np
import pytest

from repro.mapping.base import CorePool, Mapper, PoolExhaustedError
from repro.util.rng import make_rng


class _NaiveCorePool:
    """Reference replica of the pre-optimisation ``closest_free``.

    Rebuilds the free-core array and gathers distances from the full
    matrix on every query — the behaviour :class:`CorePool` must
    reproduce placement-for-placement.
    """

    def __init__(self, D, cores, rng=0, tie_break="random"):
        self.D = np.asarray(D)
        self.cores = np.asarray(cores, dtype=np.int64)
        self.free = np.ones(self.cores.size, dtype=bool)
        self.rng = make_rng(rng)
        self.tie_break = tie_break

    def take(self, core):
        self.free[int(np.flatnonzero(self.cores == core)[0])] = False

    def closest_free(self, ref_core):
        free_cores = self.cores[self.free]
        d = self.D[int(ref_core), free_cores]
        if self.tie_break == "first":
            return int(free_cores[int(np.argmin(d))])
        candidates = free_cores[d == d.min()]
        return int(candidates[self.rng.integers(candidates.size)])


class TestCorePool:
    def test_take_and_free_count(self, tiny_D):
        pool = CorePool(tiny_D, [0, 1, 2, 3])
        assert pool.n_free == 4
        pool.take(2)
        assert pool.n_free == 3
        assert pool.free.tolist() == [True, True, False, True]

    def test_double_take_rejected(self, tiny_D):
        pool = CorePool(tiny_D, [0, 1])
        pool.take(0)
        with pytest.raises(ValueError, match="already taken"):
            pool.take(0)

    def test_foreign_core_rejected(self, tiny_D):
        pool = CorePool(tiny_D, [0, 1])
        with pytest.raises(KeyError):
            pool.take(5)

    def test_duplicates_rejected(self, tiny_D):
        with pytest.raises(ValueError, match="duplicate"):
            CorePool(tiny_D, [0, 0, 1])

    def test_empty_rejected(self, tiny_D):
        with pytest.raises(ValueError, match="empty"):
            CorePool(tiny_D, [])

    def test_closest_free_prefers_same_socket(self, tiny_cluster, tiny_D):
        # cores 0,1 same socket; 2,3 same node other socket; 4+ other nodes
        pool = CorePool(tiny_D, list(range(16)), tie_break="first")
        pool.take(0)
        assert pool.closest_free(0) == 1

    def test_closest_skips_taken(self, tiny_D):
        pool = CorePool(tiny_D, list(range(16)), tie_break="first")
        pool.take(0)
        pool.take(1)
        # next closest to core 0 is its cross-socket neighbours 2, 3
        assert pool.closest_free(0) == 2

    def test_random_tie_break_uses_rng(self, tiny_D):
        picks = set()
        for seed in range(20):
            pool = CorePool(tiny_D, list(range(16)), rng=seed, tie_break="random")
            pool.take(0)
            pool.take(1)
            picks.add(pool.closest_free(0))  # 2 and 3 tie
        assert picks == {2, 3}

    def test_exhaustion_raises(self, tiny_D):
        pool = CorePool(tiny_D, [0])
        pool.take(0)
        with pytest.raises(RuntimeError, match="no free cores"):
            pool.closest_free(0)

    def test_exhaustion_error_is_typed(self, tiny_D):
        # PoolExhaustedError subclasses RuntimeError, so the older
        # ``except RuntimeError`` call sites keep working.
        pool = CorePool(tiny_D, [0, 1])
        pool.take(0)
        pool.take(1)
        with pytest.raises(PoolExhaustedError, match="no free cores"):
            pool.place_closest(0)
        assert issubclass(PoolExhaustedError, RuntimeError)

    def test_bad_tie_break(self, tiny_D):
        with pytest.raises(ValueError):
            CorePool(tiny_D, [0], tie_break="nope")

    @pytest.mark.parametrize("tie_break", ["random", "first"])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_pins_naive_placements(self, mid_D, tie_break, seed):
        """The pool's query yields *identical* placement sequences (and
        rng consumption) to the naive rebuild-per-query reference, in
        both tie-break modes."""
        rng = make_rng(seed)
        cores = rng.permutation(mid_D.shape[0])[:48]
        fast = CorePool(mid_D, cores, rng=seed, tie_break=tie_break)
        slow = _NaiveCorePool(mid_D, cores, rng=seed, tie_break=tie_break)
        # greedy chain: each placement becomes the next reference core,
        # like the paper heuristics walk their priority queues
        ref = int(cores[0])
        fast.take(ref)
        slow.take(ref)
        for _ in range(cores.size - 1):
            a = fast.closest_free(ref)
            b = slow.closest_free(ref)
            assert a == b
            fast.take(a)
            slow.take(a)
            ref = a

    def test_external_reference_core(self, mid_D):
        """Reference cores outside the pool still work (direct gather)."""
        pool = CorePool(mid_D, list(range(8, 24)), tie_break="first")
        naive = _NaiveCorePool(mid_D, list(range(8, 24)), tie_break="first")
        for ref in (0, 40, 63):
            assert pool.closest_free(ref) == naive.closest_free(ref)


    def test_dense_map_makes_no_pool_sized_copy(self):
        """A dense-matrix map scans the free cores' distances only.

        Gathering the pool's p x p sub-matrix (4 MiB of float32 at
        p=1024) slowed Fig. 7(b)'s dense RDMH map; the free-core scan
        needs O(p) scratch per query.
        """
        import tracemalloc

        from repro.mapping.rdmh import RDMH
        from repro.topology.gpc import gpc_cluster

        cluster = gpc_cluster(n_nodes=128)
        D = cluster.distance_matrix()
        layout = np.arange(cluster.n_cores, dtype=np.int64)
        tracemalloc.start()
        try:
            RDMH().map(layout, D, rng=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peak {peak / 2**20:.2f} MiB"

class TestMapperPlumbing:
    def test_finish_detects_unmapped(self, tiny_D):
        layout = np.arange(4)
        M = np.array([0, 1, -1, 3])
        with pytest.raises(RuntimeError, match="unmapped"):
            Mapper._finish(M, layout)

    def test_finish_detects_foreign_cores(self):
        # both sides of the list-sort / np.sort size gate
        for p in (4, 4096):
            layout = np.arange(p)
            M = layout.copy()
            M[-1] = p + 3
            with pytest.raises(RuntimeError, match="outside"):
                Mapper._finish(M, layout)
            M[-1] = M[0]  # a core twice, one missing
            with pytest.raises(RuntimeError, match="outside"):
                Mapper._finish(M, layout)
            assert Mapper._finish(layout[::-1].copy(), layout) is not None
