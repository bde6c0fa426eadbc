"""Placement-identity tests: naive CorePool vs. the vectorised driver.

The vectorised engine (:class:`repro.mapping.base.HierarchicalFreePool`
driven by ``execute_program``) must reproduce the naive per-query
reference *bit for bit* — same cores, same rng stream, both tie-break
modes — otherwise cached mappings and benchmark cross-checks would
silently drift between engines.
"""

import numpy as np
import pytest

from repro.mapping.base import (
    HierarchicalFreePool,
    PoolExhaustedError,
    PLACEMENT_ENGINES,
)
from repro.mapping.bbmh import BBMH
from repro.mapping.bgmh import BGMH
from repro.mapping.bruckmh import BruckMH
from repro.mapping.initial import make_layout
from repro.mapping.rdmh import RDMH
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
    """Map once per engine; ``vect_seed`` gives the vectorised map its own
    rng when ``seed`` is a live Generator (default: ``seed`` itself)."""
    naive = cls(tie_break=tie_break, engine="naive").map(
        layout, cluster.distance_matrix(), rng=seed
    )
    vect = cls(tie_break=tie_break, engine="vectorized").map(
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
    def test_engine_validated_at_construction(self):
        with pytest.raises(ValueError, match="engine"):
            RMH(engine="bogus")
        assert PLACEMENT_ENGINES == ("auto", "naive", "vectorized")

    def test_auto_opens_hierarchical_pool_on_implicit_backend(self, mid_cluster):
        impl = mid_cluster.implicit_distances()
        assert impl.supports_vectorized_placement
        L = make_layout("block-bunch", mid_cluster, 16)
        pool = RMH(engine="auto")._open_pool(impl, L, 0)
        assert type(pool) is HierarchicalFreePool

    def test_vectorized_rejects_dense_matrix(self, mid_cluster):
        L = make_layout("block-bunch", mid_cluster, 16)
        with pytest.raises(ValueError, match="vectorized"):
            RMH(engine="vectorized").map(L, mid_cluster.distance_matrix(), rng=0)

    def test_auto_falls_back_on_collapsed_ladder(self):
        # Zero LEAF_LINE weight collapses the same-leaf and same-line
        # levels: the implicit backend advertises no vectorised support,
        # and engine="auto" must quietly fall back to the naive pool.
        weights = dict(DEFAULT_DISTANCE_WEIGHTS)
        weights[LinkClass.LEAF_LINE] = 0.0
        cluster = ClusterTopology(n_nodes=8, distance_weights=weights)
        impl = cluster.implicit_distances()
        assert not impl.supports_vectorized_placement
        L = make_layout("block-bunch", cluster, 16)
        via_auto = RMH(engine="auto").map(L, impl, rng=2)
        via_naive = RMH(engine="naive").map(L, cluster.distance_matrix(), rng=2)
        assert np.array_equal(via_auto, via_naive)
        with pytest.raises(ValueError, match="vectorized"):
            RMH(engine="vectorized").map(L, impl, rng=2)


class TestHierarchicalFreePool:
    def test_exhaustion_raises_typed_error(self, mid_cluster):
        pool = HierarchicalFreePool(
            mid_cluster.implicit_distances(), np.arange(4), rng=0
        )
        for core in range(4):
            pool.take(core)
        with pytest.raises(PoolExhaustedError, match="no free cores"):
            pool.closest_free(0)
        with pytest.raises(PoolExhaustedError):
            pool.place_closest(0)

    def test_closest_free_matches_reference(self, mid_cluster, mid_D, big_cluster):
        from repro.mapping.base import CorePool

        cores = np.arange(24)
        a = CorePool(mid_D, cores, rng=0)
        b = HierarchicalFreePool(mid_cluster.implicit_distances(), cores, rng=0)
        rng = make_rng(123)
        for _ in range(20):
            ref = int(rng.integers(24))
            ca, cb = a.closest_free(ref), b.closest_free(ref)
            assert ca == cb
            a.take(ca)
            b.take(cb)

        # A pool that leaves out nodes, one socket of node 5 and the whole
        # second leaf switch (nodes 30, 31): references on those cores
        # have no group in the pool at one or more levels and land on the
        # always-zero slot of the pool-local tables.
        cpn = big_cluster.cores_per_node
        nodes = [np.arange(n * cpn, (n + 1) * cpn) for n in (0, 1, 3, 17)]
        cores = np.concatenate(nodes + [np.arange(5 * cpn, 5 * cpn + 4)])
        D, impl = big_cluster.distance_matrix(), big_cluster.implicit_distances()
        for query in ("closest_free", "place_closest"):
            a = CorePool(D, cores, rng=7)
            b = HierarchicalFreePool(impl, cores, rng=7)
            draws = make_rng(321).integers(big_cluster.n_cores, size=cores.size - 3)
            refs = [30 * cpn, 2 * cpn, 5 * cpn + 4] + draws.tolist()
            for ref in refs:
                if query == "closest_free":
                    ca, cb = a.closest_free(ref), b.closest_free(ref)
                    a.take(ca)
                    b.take(cb)
                else:
                    ca, cb = a.place_closest(ref), b.place_closest(ref)
                assert ca == cb
            assert b.n_free == 0
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
