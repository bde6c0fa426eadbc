"""Content-addressed mapping cache tests (LRU, key, wiring)."""

import numpy as np
import pytest

from repro.collectives.correctness import RankReordering
from repro.mapping.cache import (
    MAPPING_CACHE_SIZE,
    global_mapping_cache,
    mapping_cache_key,
)
from repro.mapping.greedy import GreedyGraphMapper
from repro.mapping.initial import make_layout
from repro.mapping.patterns import PATTERN_BUILDERS, build_pattern
from repro.mapping.reorder import ReorderResult, reorder_all, reorder_ranks
from repro.mapping.rmh import RMH
from repro.mapping.scotch import ScotchLikeMapper
from repro.topology.gpc import gpc_cluster
from repro.util.lru import LRU
from repro.util.rng import make_rng


def _entry(layout):
    layout = np.asarray(layout, dtype=np.int64)
    return ReorderResult(
        reordering=RankReordering(layout=layout, mapping=layout[::-1]),
        pattern="ring",
        mapper_name="test",
        map_seconds=0.01,
    )


class TestCacheKey:
    def test_deterministic(self):
        L = np.arange(8, dtype=np.int64)
        a = mapping_cache_key("fp", "ring", "heuristic", L, 0, {"tie_break": "first"})
        b = mapping_cache_key("fp", "ring", "heuristic", L, 0, {"tie_break": "first"})
        assert a == b

    @pytest.mark.parametrize(
        "change",
        [
            {"fingerprint": "other"},
            {"pattern": "bruck"},
            {"kind": "scotch"},
            {"seed": 1},
            {"layout": np.arange(1, 9)},
            {"kwargs": {"tie_break": "random"}},
        ],
    )
    def test_every_field_is_content(self, change):
        base = dict(
            fingerprint="fp",
            pattern="ring",
            kind="heuristic",
            layout=np.arange(8),
            seed=0,
            kwargs={"tie_break": "first"},
        )
        a = mapping_cache_key(
            base["fingerprint"], base["pattern"], base["kind"],
            base["layout"], base["seed"], base["kwargs"],
        )
        base.update(change)
        b = mapping_cache_key(
            base["fingerprint"], base["pattern"], base["kind"],
            base["layout"], base["seed"], base["kwargs"],
        )
        assert a != b


class TestMappingCache:
    def test_memory_roundtrip_and_stats(self):
        cache = LRU(MAPPING_CACHE_SIZE)
        assert cache.get("k") is None
        entry = _entry([3, 1, 2])
        cache.put("k", entry)
        assert cache.get("k") is entry  # the stored value itself, no copy
        assert np.array_equal(entry.mapping, [2, 1, 3])
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_bound(self):
        cache = LRU(2)
        for i in range(3):
            cache.put(f"k{i}", _entry([i, i + 1]))
        assert len(cache) == 2
        assert cache.get("k0") is None  # evicted oldest

    def test_every_hit_returns_the_stored_object(self):
        cache = LRU(MAPPING_CACHE_SIZE)
        entries = {f"k{i}": _entry([i, i + 1, i + 2]) for i in range(3)}
        for key, entry in entries.items():
            cache.put(key, entry)
        for _ in range(2):
            for key, entry in entries.items():
                assert cache.get(key) is entry
        assert (cache.hits, cache.misses) == (6, 0)


class TestGlobalCache:
    def test_one_instance_per_process(self):
        cache = global_mapping_cache()
        assert isinstance(cache, LRU) and cache.capacity == MAPPING_CACHE_SIZE
        assert global_mapping_cache() is cache


class TestReorderRanksCaching:
    def test_hit_reproduces_mapping(self, mid_cluster):
        cache = LRU(MAPPING_CACHE_SIZE)
        L = make_layout("cyclic-bunch", mid_cluster, 16)
        impl = mid_cluster.implicit_distances()
        first = reorder_ranks("ring", L, impl, rng=4, cache=cache)
        again = reorder_ranks("ring", L, impl, rng=4, cache=cache)
        assert not first.cached and again.cached
        assert again.reordering is first.reordering  # kept, not rebuilt
        assert again.mapper_name == first.mapper_name

    def test_other_layout_under_the_key_is_not_served(self, mid_cluster):
        cache = LRU(MAPPING_CACHE_SIZE)
        L = make_layout("cyclic-bunch", mid_cluster, 16)
        impl = mid_cluster.implicit_distances()
        key = mapping_cache_key(impl.fingerprint, "ring", "heuristic", L, 4)
        cache.put(key, _entry(L[::-1]))
        res = reorder_ranks("ring", L, impl, rng=4, cache=cache)
        assert not res.cached and np.array_equal(res.reordering.layout, L)
        assert cache.get(key) is not None and cache.get(key).reordering is res.reordering

    def test_engine_kwarg_is_rejected(self, mid_cluster):
        # The distance backend picks the placement executor; no kwarg does.
        cache = LRU(MAPPING_CACHE_SIZE)
        L = make_layout("block-bunch", mid_cluster, 16)
        impl = mid_cluster.implicit_distances()
        with pytest.raises(TypeError, match="engine"):
            reorder_ranks("ring", L, impl, rng=1, cache=cache, engine=None)
        assert len(cache) == 0

    def test_dense_matrix_bypasses_cache(self, mid_cluster, mid_D):
        # No fingerprint on a plain ndarray -> nothing content-addressable.
        cache = LRU(MAPPING_CACHE_SIZE)
        L = make_layout("block-bunch", mid_cluster, 16)
        res = reorder_ranks("ring", L, mid_D, rng=0, cache=cache)
        assert not res.cached and len(cache) == 0

    def test_generator_rng_bypasses_cache(self, mid_cluster):
        cache = LRU(MAPPING_CACHE_SIZE)
        L = make_layout("block-bunch", mid_cluster, 16)
        impl = mid_cluster.implicit_distances()
        res = reorder_ranks("ring", L, impl, rng=make_rng(0), cache=cache)
        assert not res.cached and len(cache) == 0

    def test_refused_calls_count_no_miss(self, mid_cluster):
        cache = LRU(MAPPING_CACHE_SIZE)
        L = make_layout("block-bunch", mid_cluster, 16)
        impl = mid_cluster.implicit_distances()
        with pytest.raises(TypeError, match="bogus"):
            reorder_ranks("ring", L, impl, rng=1, cache=cache, bogus=1)
        with pytest.raises(KeyError, match="nosuch"):
            reorder_ranks("nosuch", L, impl, rng=1, cache=cache)
        with pytest.raises(KeyError, match="nosuch"):
            reorder_ranks("nosuch", L, impl, kind="scotch", rng=1, cache=cache)
        with pytest.raises(TypeError, match="bogus"):
            reorder_ranks("ring", L, impl, kind="scotch", rng=1, cache=cache, bogus=2)
        with pytest.raises(TypeError, match="bogus"):
            reorder_all(L, impl, rng=1, cache=cache, bogus=1)
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    #: layouts that are not a non-empty 1-D integer array of core ids
    BAD_LAYOUTS = {
        "float-list": [0.0, 1.5, 2, 3],
        "float-array": np.array([0.9, 5.7, 2.2, 3.0]),
        "bool-array": np.array([True, False]),
        "2-d-list": [[0, 1], [2, 3]],
        "empty": [],
    }

    @pytest.mark.parametrize("bad", sorted(BAD_LAYOUTS))
    def test_non_integer_layout_refused_before_lookup(self, bad):
        """Floats were truncated (``[0.0, 1.5, 2, 3]`` was served the
        mapping cached for ``[0, 1, 2, 3]``) and bools read as cores 1, 0;
        each is now refused before the cache or the rng is touched."""
        impl = gpc_cluster(n_nodes=4).implicit_distances()
        cache = LRU(MAPPING_CACHE_SIZE)
        reorder_ranks("ring", [0, 1, 2, 3], impl, rng=0, cache=cache)
        stats = cache.stats()
        layout = self.BAD_LAYOUTS[bad]
        g = make_rng(3)
        state = g.bit_generator.state
        with pytest.raises(ValueError, match="layout"):
            reorder_ranks("ring", layout, impl, rng=0, cache=cache)
        with pytest.raises(ValueError, match="layout"):
            reorder_all(layout, impl, patterns=["ring"], rng=0, cache=cache)
        with pytest.raises(ValueError, match="layout"):
            reorder_all(layout, impl, patterns=["ring"], rng=g, cache="off")
        with pytest.raises(ValueError, match="layout"):
            RMH().map(layout, impl, rng=g)
        for graph_mapper in (ScotchLikeMapper, GreedyGraphMapper):
            with pytest.raises(ValueError, match="layout"):
                graph_mapper(build_pattern("ring", 4)).map(layout, impl, rng=g)
        assert cache.stats() == stats
        assert g.bit_generator.state == state

    def test_integer_layouts_map_as_before(self):
        impl = gpc_cluster(n_nodes=4).implicit_distances()
        cores = [5, 0, 17, 9, 30, 2, 11, 24]
        forms = [cores, np.array(cores, dtype=np.int32), np.array(cores, dtype=np.int64)]
        maps = [
            reorder_all(L, impl, rng=3, cache="off")["binomial-gather"].mapping for L in forms
        ]
        maps += [reorder_ranks("ring", L, impl, rng=3, cache="off").mapping for L in forms]
        for m in maps[1:3]:
            assert np.array_equal(m, maps[0])
        for m in maps[4:]:
            assert np.array_equal(m, maps[3])
        assert all(m.dtype == np.int64 for m in maps)

    @pytest.mark.parametrize("kind", ["scotch", "greedy"])
    def test_hit_builds_no_pattern_graph(self, mid_cluster, monkeypatch, kind):
        cache = LRU(MAPPING_CACHE_SIZE)
        L = make_layout("cyclic-bunch", mid_cluster, 16)
        impl = mid_cluster.implicit_distances()
        first = reorder_ranks("ring", L, impl, kind=kind, rng=2, cache=cache)

        def no_graph(p):
            raise AssertionError("a cache hit built the pattern graph")

        monkeypatch.setitem(PATTERN_BUILDERS, "ring", no_graph)
        again = reorder_ranks("ring", L, impl, kind=kind, rng=2, cache=cache)
        assert again.cached and np.array_equal(again.mapping, first.mapping)
        assert again.graph_seconds == first.graph_seconds

    def test_cache_off_and_bad_value(self, mid_cluster):
        L = make_layout("block-bunch", mid_cluster, 16)
        impl = mid_cluster.implicit_distances()
        res = reorder_ranks("ring", L, impl, rng=0, cache="off")
        assert not res.cached
        with pytest.raises(ValueError, match="cache"):
            reorder_ranks("ring", L, impl, rng=0, cache=42)
